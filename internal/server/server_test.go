package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"skysql"
	"skysql/internal/datagen"
	"skysql/internal/server"
)

// post sends a JSON body and returns the status plus the raw response.
func post(t *testing.T, c *http.Client, url string, body interface{}) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func decodeErr(t *testing.T, raw []byte) server.ErrorResponse {
	t.Helper()
	var e server.ErrorResponse
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatalf("decoding error response %q: %v", raw, err)
	}
	return e
}

func decodeQuery(t *testing.T, raw []byte) server.QueryResponse {
	t.Helper()
	var q server.QueryResponse
	if err := json.Unmarshal(raw, &q); err != nil {
		t.Fatalf("decoding query response: %v", err)
	}
	return q
}

func getStats(t *testing.T, c *http.Client, base string) server.Stats {
	t.Helper()
	resp, err := c.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// hotels is a fixed 4-row table whose skyline (price MIN, distance MIN)
// is known by inspection: rows 1 and 3 dominate 2 and 4.
var hotels = server.TableRequest{
	Name: "hotels",
	Columns: []server.Column{
		{Name: "id", Type: "BIGINT"},
		{Name: "price", Type: "DOUBLE"},
		{Name: "distance", Type: "DOUBLE"},
	},
	Rows: [][]interface{}{
		{1, 50.0, 4.0},
		{2, 80.0, 5.0},
		{3, 90.0, 1.0},
		{4, 95.0, 2.0},
	},
}

func TestQueryEndpoint(t *testing.T) {
	sess := skysql.NewSession(skysql.WithExecutors(2))
	defer sess.Close()
	ts := httptest.NewServer(server.New(sess))
	defer ts.Close()
	c := ts.Client()

	if status, raw := post(t, c, ts.URL+"/tables", hotels); status != http.StatusOK {
		t.Fatalf("create table: %d %s", status, raw)
	}
	const sql = "SELECT * FROM hotels SKYLINE OF price MIN, distance MIN"
	status, raw := post(t, c, ts.URL+"/query", server.QueryRequest{SQL: sql})
	if status != http.StatusOK {
		t.Fatalf("query: %d %s", status, raw)
	}
	q := decodeQuery(t, raw)
	if len(q.Columns) != 3 || q.Columns[0].Name != "id" || q.Columns[1].Type != "DOUBLE" {
		t.Errorf("columns = %+v", q.Columns)
	}
	if q.RowCount != 2 || len(q.Rows) != 2 {
		t.Fatalf("skyline rows = %d (%v), want 2", q.RowCount, q.Rows)
	}
	ids := map[float64]bool{}
	for _, r := range q.Rows {
		ids[r[0].(float64)] = true
	}
	if !ids[1] || !ids[3] {
		t.Errorf("skyline ids = %v, want {1, 3}", ids)
	}
	if q.Metrics.Stages == 0 {
		t.Error("metrics must report executed stages")
	}

	// The same query again must return a bit-identical body (modulo the
	// wall-clock duration and cache counters, which the repeat flips).
	status2, raw2 := post(t, c, ts.URL+"/query", server.QueryRequest{SQL: sql})
	if status2 != http.StatusOK {
		t.Fatalf("repeat query: %d %s", status2, raw2)
	}
	q2 := decodeQuery(t, raw2)
	if !reflect.DeepEqual(q.Rows, q2.Rows) || !reflect.DeepEqual(q.Columns, q2.Columns) {
		t.Error("repeated query returned different rows")
	}

	st := getStats(t, c, ts.URL)
	if st.Server.Queries != 2 {
		t.Errorf("queries_total = %d, want 2", st.Server.Queries)
	}
	if len(st.Catalog.Tables) != 1 || st.Catalog.Tables[0] != "hotels" {
		t.Errorf("catalog tables = %v", st.Catalog.Tables)
	}
}

func TestBadRequests(t *testing.T) {
	sess := skysql.NewSession(skysql.WithExecutors(1))
	defer sess.Close()
	ts := httptest.NewServer(server.New(sess))
	defer ts.Close()
	c := ts.Client()

	cases := []struct {
		name   string
		status int
		run    func() (int, []byte)
	}{
		{"empty sql", http.StatusBadRequest, func() (int, []byte) {
			return post(t, c, ts.URL+"/query", server.QueryRequest{SQL: "  "})
		}},
		{"unknown table", http.StatusBadRequest, func() (int, []byte) {
			return post(t, c, ts.URL+"/query", server.QueryRequest{SQL: "SELECT * FROM nope"})
		}},
		{"malformed json", http.StatusBadRequest, func() (int, []byte) {
			resp, err := c.Post(ts.URL+"/query", "application/json", bytes.NewReader([]byte("{nope")))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			return resp.StatusCode, raw
		}},
		{"GET on POST endpoint", http.StatusMethodNotAllowed, func() (int, []byte) {
			resp, err := c.Get(ts.URL + "/query")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			return resp.StatusCode, raw
		}},
		{"drop without name", http.StatusBadRequest, func() (int, []byte) {
			return post(t, c, ts.URL+"/drop", server.DropRequest{})
		}},
	}
	for _, tc := range cases {
		status, raw := tc.run()
		if status != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, status, tc.status, raw)
			continue
		}
		if e := decodeErr(t, raw); e.Code != "bad_request" {
			t.Errorf("%s: code %q, want bad_request", tc.name, e.Code)
		}
	}
}

func TestTablesAppendDrop(t *testing.T) {
	sess := skysql.NewSession(skysql.WithExecutors(1))
	defer sess.Close()
	ts := httptest.NewServer(server.New(sess))
	defer ts.Close()
	c := ts.Client()

	if status, raw := post(t, c, ts.URL+"/tables", hotels); status != http.StatusOK {
		t.Fatalf("create: %d %s", status, raw)
	}
	count := func() int {
		status, raw := post(t, c, ts.URL+"/query", server.QueryRequest{SQL: "SELECT * FROM hotels"})
		if status != http.StatusOK {
			t.Fatalf("count query: %d %s", status, raw)
		}
		return decodeQuery(t, raw).RowCount
	}
	if got := count(); got != 4 {
		t.Fatalf("initial rows = %d, want 4", got)
	}
	status, raw := post(t, c, ts.URL+"/append", server.AppendRequest{
		Name: "hotels",
		Rows: [][]interface{}{{5, 40.0, 6.0}, {6, 99.0, 9.0}},
	})
	if status != http.StatusOK {
		t.Fatalf("append: %d %s", status, raw)
	}
	if got := count(); got != 6 {
		t.Fatalf("rows after append = %d, want 6", got)
	}
	// Width mismatch is the table's own validation, surfaced as 400.
	if status, _ := post(t, c, ts.URL+"/append", server.AppendRequest{
		Name: "hotels", Rows: [][]interface{}{{7, 1.0}},
	}); status != http.StatusBadRequest {
		t.Errorf("short append row: status %d, want 400", status)
	}
	if status, _ := post(t, c, ts.URL+"/drop", server.DropRequest{Name: "hotels"}); status != http.StatusOK {
		t.Fatalf("drop: %d", status)
	}
	if status, _ := post(t, c, ts.URL+"/query", server.QueryRequest{SQL: "SELECT * FROM hotels"}); status != http.StatusBadRequest {
		t.Errorf("query after drop: status %d, want 400", status)
	}
}

// TestStatsCountAppendOutcomes: /stats tells what an append did to the
// result cache — a maintainable entry (SELECT *) is upgraded in place, an
// entry with a projection above its skyline is invalidated — so neither
// has to be inferred from entry counts.
func TestStatsCountAppendOutcomes(t *testing.T) {
	sess := skysql.NewSession(skysql.WithExecutors(2), skysql.WithResultCache(0))
	defer sess.Close()
	ts := httptest.NewServer(server.New(sess))
	defer ts.Close()
	c := ts.Client()

	if status, raw := post(t, c, ts.URL+"/tables", hotels); status != http.StatusOK {
		t.Fatalf("create: %d %s", status, raw)
	}
	for _, sql := range []string{
		"SELECT * FROM hotels SKYLINE OF price MIN, distance MIN",
		"SELECT id FROM hotels SKYLINE OF price MIN, distance MIN",
	} {
		if status, raw := post(t, c, ts.URL+"/query", server.QueryRequest{SQL: sql}); status != http.StatusOK {
			t.Fatalf("%s: %d %s", sql, status, raw)
		}
	}
	if st := getStats(t, c, ts.URL).Cache; st.Entries != 2 || st.Upgrades != 0 || st.Invalidations != 0 {
		t.Fatalf("before the append: %+v", st)
	}
	if status, raw := post(t, c, ts.URL+"/append", server.AppendRequest{
		Name: "hotels", Rows: [][]interface{}{{5, 40.0, 6.0}},
	}); status != http.StatusOK {
		t.Fatalf("append: %d %s", status, raw)
	}
	if st := getStats(t, c, ts.URL).Cache; st.Entries != 1 || st.Upgrades != 1 || st.Invalidations != 1 || st.Evictions != 0 {
		t.Errorf("after the append: %+v, want 1 entry, 1 upgrade, 1 invalidation, 0 evictions", st)
	}
}

// TestQueryDeadline504 pins the per-request timeout path end to end: a
// skyline over a table far too large for a 1ms budget must come back 504
// with the stable "deadline" code — even when the final execution rounds
// were already running when the deadline fired (the cooperative-
// cancellation recheck in Session.runCtx).
func TestQueryDeadline504(t *testing.T) {
	sess := skysql.NewSession(skysql.WithExecutors(2))
	defer sess.Close()
	tab := datagen.Synthetic(datagen.AntiCorrelated, 30000, 4, datagen.Config{Seed: 1, Complete: true})
	sess.RegisterTable(tab)
	ts := httptest.NewServer(server.New(sess))
	defer ts.Close()

	status, raw := post(t, ts.Client(), ts.URL+"/query", server.QueryRequest{
		SQL:           "SELECT * FROM t SKYLINE OF COMPLETE d1 MIN, d2 MIN, d3 MIN, d4 MIN",
		TimeoutMillis: 1,
	})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", status, raw)
	}
	if e := decodeErr(t, raw); e.Code != "deadline" {
		t.Errorf("code = %q, want deadline", e.Code)
	}
}

// TestAdmission429 drives the admission controller over HTTP: with one
// execution slot and no queue, a doomed long-running blocker saturates
// the server and a concurrent probe is turned away with 429; once the
// blocker drains, the same probe succeeds.
func TestAdmission429(t *testing.T) {
	sess := skysql.NewSession(
		skysql.WithExecutors(2),
		skysql.WithMaxConcurrentQueries(1),
	)
	defer sess.Close()
	tab := datagen.Synthetic(datagen.AntiCorrelated, 30000, 4, datagen.Config{Seed: 1, Complete: true})
	sess.RegisterTable(tab)
	probe := datagen.Synthetic(datagen.Independent, 32, 2, datagen.Config{Seed: 2})
	probe.Name = "probe"
	sess.RegisterTable(probe)
	ts := httptest.NewServer(server.New(sess))
	defer ts.Close()
	c := ts.Client()

	blockerDone := make(chan int, 1)
	go func() {
		status, _ := post(t, c, ts.URL+"/query", server.QueryRequest{
			SQL:           "SELECT * FROM t SKYLINE OF COMPLETE d1 MIN, d2 MIN, d3 MIN, d4 MIN",
			TimeoutMillis: 2000,
		})
		blockerDone <- status
	}()
	deadline := time.Now().Add(10 * time.Second)
	for getStats(t, c, ts.URL).Admission.InFlight < 1 {
		if time.Now().After(deadline) {
			t.Fatal("blocker never entered execution")
		}
		time.Sleep(time.Millisecond)
	}

	const probeSQL = "SELECT * FROM probe SKYLINE OF d1 MIN, d2 MIN"
	status, raw := post(t, c, ts.URL+"/query", server.QueryRequest{SQL: probeSQL})
	if status != http.StatusTooManyRequests {
		t.Fatalf("probe under saturation: %d (%s), want 429", status, raw)
	}
	if e := decodeErr(t, raw); e.Code != "admission_rejected" {
		t.Errorf("code = %q, want admission_rejected", e.Code)
	}

	if bs := <-blockerDone; bs != http.StatusGatewayTimeout {
		t.Errorf("blocker finished %d, want 504 (timeout_ms doomed it)", bs)
	}
	if status, raw := post(t, c, ts.URL+"/query", server.QueryRequest{SQL: probeSQL}); status != http.StatusOK {
		t.Errorf("probe after drain: %d (%s), want 200", status, raw)
	}
	st := getStats(t, c, ts.URL)
	if st.Admission.Rejected < 1 {
		t.Errorf("rejected = %d, want >= 1", st.Admission.Rejected)
	}
	if st.Admission.InFlight != 0 {
		t.Errorf("in-flight after drain = %d, want 0", st.Admission.InFlight)
	}
}

// TestConcurrentMixedLoad is the serving tier's race test: one shared
// session under simultaneous queriers, appenders, and create/drop churn.
// Query bodies must stay bit-identical to serial references, appends must
// all land, churn must never surface a 5xx, and the admission controller
// must end drained.
func TestConcurrentMixedLoad(t *testing.T) {
	sess := skysql.NewSession(
		skysql.WithExecutors(4),
		skysql.WithResultCache(8<<20),
		skysql.WithMaxConcurrentQueries(4),
		skysql.WithAdmissionQueue(8),
		skysql.WithGlobalMemoryBudget(0), // metering-only: stats, no degradation
	)
	defer sess.Close()
	// q: static query target — its result set never changes, so every
	// concurrent read must match the serial reference bytes.
	q := datagen.Synthetic(datagen.AntiCorrelated, 4000, 4, datagen.Config{Seed: 3, Complete: true})
	q.Name = "q"
	sess.RegisterTable(q)
	// a: append target with a fixed initial population.
	a := datagen.Synthetic(datagen.Independent, 100, 2, datagen.Config{Seed: 4})
	a.Name = "a"
	sess.RegisterTable(a)
	ts := httptest.NewServer(server.New(sess))
	defer ts.Close()
	c := ts.Client()

	shapes := []string{
		"SELECT * FROM q SKYLINE OF COMPLETE d1 MIN, d2 MIN",
		"SELECT * FROM q SKYLINE OF COMPLETE d1 MIN, d2 MIN, d3 MIN",
		"SELECT * FROM q SKYLINE OF COMPLETE d1 MIN, d2 MIN, d3 MIN, d4 MIN",
	}
	// Serial references, taken before any concurrency starts.
	ref := make([]string, len(shapes))
	for i, sql := range shapes {
		status, raw := post(t, c, ts.URL+"/query", server.QueryRequest{SQL: sql})
		if status != http.StatusOK {
			t.Fatalf("reference %d: %d %s", i, status, raw)
		}
		rows, err := json.Marshal(decodeQuery(t, raw).Rows)
		if err != nil {
			t.Fatal(err)
		}
		ref[i] = string(rows)
	}

	const (
		queriers  = 4
		queryIter = 20
		appenders = 2
		appIter   = 15
		appRows   = 3
		churnIter = 10
	)
	var wg sync.WaitGroup
	errs := make(chan error, queriers*queryIter+appenders*appIter+churnIter)

	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < queryIter; i++ {
				k := (g + i) % len(shapes)
				status, raw := post(t, c, ts.URL+"/query", server.QueryRequest{SQL: shapes[k]})
				switch status {
				case http.StatusOK:
					rows, err := json.Marshal(decodeQuery(t, raw).Rows)
					if err != nil {
						errs <- err
						return
					}
					if string(rows) != ref[k] {
						errs <- fmt.Errorf("querier %d iter %d: shape %d diverged from serial reference", g, i, k)
						return
					}
				case http.StatusTooManyRequests:
					// Bounded admission under burst is legitimate.
				default:
					errs <- fmt.Errorf("querier %d iter %d: unexpected status %d (%s)", g, i, status, raw)
					return
				}
			}
		}(g)
	}
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < appIter; i++ {
				// Synthetic tables carry an id column ahead of the dims.
				rows := make([][]interface{}, appRows)
				for j := range rows {
					rows[j] = []interface{}{float64(g*1000 + i*10 + j), float64(j), float64(j + 1)}
				}
				status, raw := post(t, c, ts.URL+"/append", server.AppendRequest{Name: "a", Rows: rows})
				if status != http.StatusOK {
					errs <- fmt.Errorf("appender %d iter %d: %d %s", g, i, status, raw)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		churnTable := server.TableRequest{
			Name:    "d",
			Columns: []server.Column{{Name: "x", Type: "BIGINT"}},
			Rows:    [][]interface{}{{1}, {2}},
		}
		for i := 0; i < churnIter; i++ {
			if status, raw := post(t, c, ts.URL+"/tables", churnTable); status != http.StatusOK {
				errs <- fmt.Errorf("churn create %d: %d %s", i, status, raw)
				return
			}
			// Racing queriers never touch "d", but a concurrent /stats or
			// /query against it may land between create and drop; both a 200
			// and a 400 (just dropped) are fine — a 5xx is not.
			status, raw := post(t, c, ts.URL+"/query", server.QueryRequest{SQL: "SELECT * FROM d"})
			if status != http.StatusOK && status != http.StatusBadRequest && status != http.StatusTooManyRequests {
				errs <- fmt.Errorf("churn query %d: %d %s", i, status, raw)
				return
			}
			if status, raw := post(t, c, ts.URL+"/drop", server.DropRequest{Name: "d"}); status != http.StatusOK {
				errs <- fmt.Errorf("churn drop %d: %d %s", i, status, raw)
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Post-conditions: admission drained, all appends landed, catalog sane.
	st := getStats(t, c, ts.URL)
	if st.Admission.InFlight != 0 || st.Admission.Waiting != 0 {
		t.Errorf("admission not drained: in-flight %d, waiting %d", st.Admission.InFlight, st.Admission.Waiting)
	}
	if st.Governor.InFlight != 0 {
		t.Errorf("governor pool not drained: %d queries attached", st.Governor.InFlight)
	}
	status, raw := post(t, c, ts.URL+"/query", server.QueryRequest{SQL: "SELECT * FROM a"})
	if status != http.StatusOK {
		t.Fatalf("final count query: %d %s", status, raw)
	}
	want := 100 + appenders*appIter*appRows
	if got := decodeQuery(t, raw).RowCount; got != want {
		t.Errorf("appended table rows = %d, want %d (torn appends)", got, want)
	}
	for _, name := range getStats(t, c, ts.URL).Catalog.Tables {
		if name != "q" && name != "a" && name != "d" {
			t.Errorf("unexpected catalog entry %q", name)
		}
	}
}
