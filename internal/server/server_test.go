package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
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
// blocker drains, the same probe succeeds. The blocker's DIFF dimension is
// the unique id, so no tuple dominates another and every pair is tested:
// seconds of work whatever the data's shape.
func TestAdmission429(t *testing.T) {
	sess := skysql.NewSession(
		skysql.WithExecutors(2),
		skysql.WithMaxConcurrentQueries(1),
	)
	defer sess.Close()
	tab := datagen.Synthetic(datagen.AntiCorrelated, 40000, 4, datagen.Config{Seed: 1, Complete: true})
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
			SQL:           "SELECT * FROM t SKYLINE OF COMPLETE d1 MIN, d2 MIN, d3 MIN, d4 MIN, id DIFF",
			TimeoutMillis: 1000,
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

// TestQueryBodyIsWhatEncodingJSONWrites pins the hand-assembled /query
// body to its declared shape: decoding it into QueryResponse and encoding
// that back with encoding/json reproduces the body byte for byte — field
// order, number forms, string escapes, trailing newline — on a miss (rows
// encoded), a hit (text copied off the cache entry) and without a cache.
func TestQueryBodyIsWhatEncodingJSONWrites(t *testing.T) {
	table := server.TableRequest{
		Name: "things",
		Columns: []server.Column{
			{Name: "id", Type: "BIGINT"},
			{Name: "price", Type: "DOUBLE"},
			{Name: "dist", Type: "DOUBLE", Nullable: true},
			{Name: "label", Type: "STRING", Nullable: true},
			{Name: "open", Type: "BOOLEAN"},
		},
		Rows: [][]interface{}{
			{1, 50.5, 4.0, "plain", true},
			{2, 1e-7, 5.25, "<a href=\"x\">&</a>", false},
			{3, 1e21, nil, "naïve ☃\u2028\n", true},
			{4, -0.000001, 2.0, nil, false},
		},
	}
	for _, opts := range [][]skysql.Option{
		{skysql.WithExecutors(2)},
		{skysql.WithExecutors(2), skysql.WithResultCache(0)},
	} {
		sess := skysql.NewSession(opts...)
		ts := httptest.NewServer(server.New(sess))
		c := ts.Client()
		if status, raw := post(t, c, ts.URL+"/tables", table); status != http.StatusOK {
			t.Fatalf("create: %d %s", status, raw)
		}
		for _, sql := range []string{
			"SELECT * FROM things SKYLINE OF price MIN, id MAX",
			"SELECT label, dist FROM things WHERE id > 100",
		} {
			var first []server.QueryResponse
			for pass := 0; pass < 2; pass++ { // with a cache: a miss, then a hit
				status, raw := post(t, c, ts.URL+"/query", server.QueryRequest{SQL: sql})
				if status != http.StatusOK {
					t.Fatalf("%s: %d %s", sql, status, raw)
				}
				q := decodeQuery(t, raw)
				var want bytes.Buffer
				if err := json.NewEncoder(&want).Encode(q); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(raw, want.Bytes()) {
					t.Errorf("%s, pass %d:\n body %s\n json %s", sql, pass, raw, want.Bytes())
				}
				q.DurationMS, q.Metrics = 0, server.QueryMetrics{}
				first = append(first, q)
			}
			if !reflect.DeepEqual(first[0], first[1]) {
				t.Errorf("%s: the repeat answered differently:\n %+v\n %+v", sql, first[0], first[1])
			}
		}
		ts.Close()
		sess.Close()
	}
}

// TestQueryNonFiniteIs500: JSON has no NaN or ±Inf. A result holding one
// used to answer 200 with an empty body (the header went out before the
// encoder refused); it answers 500 "internal", names the cell, counts as
// an error, and leaves nothing on the cache entry — the repeat, a hit,
// fails the same way.
func TestQueryNonFiniteIs500(t *testing.T) {
	sess := skysql.NewSession(skysql.WithExecutors(2), skysql.WithResultCache(0))
	defer sess.Close()
	schema := skysql.NewSchema(
		skysql.Field{Name: "id", Type: skysql.KindInt},
		skysql.Field{Name: "price", Type: skysql.KindFloat},
		skysql.Field{Name: "dist", Type: skysql.KindFloat},
	)
	sess.MustCreateTable("odd", schema, []skysql.Row{
		{skysql.Int(1), skysql.Float(10), skysql.Float(3)},
		{skysql.Int(2), skysql.Float(5), skysql.Float(math.Inf(1))},
		{skysql.Int(3), skysql.Float(20), skysql.Float(1)},
	})
	ts := httptest.NewServer(server.New(sess))
	defer ts.Close()
	c := ts.Client()

	const sql = "SELECT * FROM odd SKYLINE OF price MIN, id MIN"
	for pass, wantHits := range []int64{0, 1} {
		status, raw := post(t, c, ts.URL+"/query", server.QueryRequest{SQL: sql})
		if status != http.StatusInternalServerError {
			t.Fatalf("pass %d: status %d (%q), want 500", pass, status, raw)
		}
		e := decodeErr(t, raw)
		if e.Code != "internal" || !strings.Contains(e.Error, "row 1") || !strings.Contains(e.Error, `"dist"`) || !strings.Contains(e.Error, "+Inf") {
			t.Errorf("pass %d: error = %+v, want code internal naming row 1, column \"dist\" and +Inf", pass, e)
		}
		st := getStats(t, c, ts.URL)
		if st.Server.Errors != int64(pass+1) || st.Cache.Hits != wantHits {
			t.Errorf("pass %d: errors_total=%d cache hits=%d, want %d and %d", pass, st.Server.Errors, st.Cache.Hits, pass+1, wantHits)
		}
	}
	// The finite part of the same table still answers, and caches its text.
	before := getStats(t, c, ts.URL).Cache.UsedBytes
	status, raw := post(t, c, ts.URL+"/query", server.QueryRequest{SQL: "SELECT * FROM odd WHERE id <> 2 SKYLINE OF price MIN, id MIN"})
	if status != http.StatusOK || decodeQuery(t, raw).RowCount != 1 {
		t.Fatalf("finite rows: %d %s", status, raw)
	}
	if after := getStats(t, c, ts.URL).Cache.UsedBytes; after <= before {
		t.Errorf("cache used_bytes %d → %d: the finite answer must have been cached", before, after)
	}
}

// TestRepeatedStatementsUnderAppendAndReplace is the race test of the
// bytes-not-boxes path: several clients repeat the same four statements —
// so plans come from the statement memo and answers from cache entries'
// encoded text — while one goroutine appends to the table two of them
// read and another drops, re-creates and replaces the table the other two
// read. Every 200 must be one whole, current answer:
//
//   - over the appended table, the base rows followed by a prefix of the
//     appended ones, no shorter than what had been acknowledged when the
//     request left and no longer than what had been sent when its answer
//     arrived (a stale text left on an upgraded entry would be shorter, a
//     torn buffer would not parse or not count);
//   - over the replaced table, rows of one single generation, no older
//     than the last one acknowledged when the request left (a memoised
//     plan over the replaced table object would serve an older one).
func TestRepeatedStatementsUnderAppendAndReplace(t *testing.T) {
	// The cache is kept too small for every answer's text at once, so the
	// shedding ladder runs beside the readers.
	sess := skysql.NewSession(skysql.WithExecutors(2), skysql.WithResultCache(24<<10))
	defer sess.Close()
	ts := httptest.NewServer(server.New(sess))
	defer ts.Close()
	c := ts.Client()

	// Every row sits on one anti-diagonal (x up, y down), so every row is
	// in the skyline of (x MIN, y MIN) and answers list the table in order.
	const baseRows, appendBatches, batchRows, genRows = 40, 200, 3, 25
	diagonal := func(from, n int, tag float64) [][]interface{} {
		rows := make([][]interface{}, n)
		for i := range rows {
			k := float64(from + i)
			rows[i] = []interface{}{k, k, 1e6 - k, tag}
		}
		return rows
	}
	columns := []server.Column{{Name: "id", Type: "DOUBLE"}, {Name: "x", Type: "DOUBLE"}, {Name: "y", Type: "DOUBLE"}, {Name: "tag", Type: "DOUBLE"}}
	create := func(name string, rows [][]interface{}) error {
		status, raw := post(t, c, ts.URL+"/tables", server.TableRequest{Name: name, Columns: columns, Rows: rows})
		if status != http.StatusOK {
			return fmt.Errorf("create %s: %d %s", name, status, raw)
		}
		return nil
	}
	if err := create("grow", diagonal(0, baseRows, 0)); err != nil {
		t.Fatal(err)
	}
	if err := create("gen", diagonal(0, genRows, 1)); err != nil {
		t.Fatal(err)
	}
	statements := []string{
		"SELECT * FROM grow SKYLINE OF x MIN, y MIN",
		"SELECT id, tag FROM grow SKYLINE OF x MIN, y MIN",
		"SELECT * FROM gen SKYLINE OF x MIN, y MIN",
		"SELECT * FROM gen WHERE x >= 0",
	}

	var (
		sent, acked atomic.Int64 // append batches sent / acknowledged
		generation  atomic.Int64 // last generation of gen acknowledged
		writers     sync.WaitGroup
		readers     sync.WaitGroup
		done        = make(chan struct{})
		errs        = make(chan error, 64)
	)
	generation.Store(1)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	writers.Add(2)
	go func() {
		defer writers.Done()
		for b := 0; b < appendBatches; b++ {
			sent.Add(1)
			status, raw := post(t, c, ts.URL+"/append", server.AppendRequest{Name: "grow", Rows: diagonal(baseRows+b*batchRows, batchRows, 0)})
			if status != http.StatusOK {
				report(fmt.Errorf("append %d: %d %s", b, status, raw))
				return
			}
			acked.Add(1)
		}
	}()
	go func() {
		defer writers.Done()
		for g := int64(2); g < 2+appendBatches; g++ {
			if g%2 == 0 { // drop and re-create; odd generations replace in place
				if status, raw := post(t, c, ts.URL+"/drop", server.DropRequest{Name: "gen"}); status != http.StatusOK {
					report(fmt.Errorf("drop gen: %d %s", status, raw))
					return
				}
			}
			if err := create("gen", diagonal(0, genRows, float64(g))); err != nil {
				report(err)
				return
			}
			generation.Store(g)
		}
	}()

	check := func(k int) error {
		ackedBefore, genBefore := acked.Load(), generation.Load()
		status, raw := post(t, c, ts.URL+"/query", server.QueryRequest{SQL: statements[k]})
		sentAfter := sent.Load()
		if status == http.StatusBadRequest && k >= 2 {
			return nil // gen was between its drop and its re-creation
		}
		if status != http.StatusOK {
			return fmt.Errorf("%s: status %d (%s)", statements[k], status, raw)
		}
		var q server.QueryResponse
		if err := json.Unmarshal(raw, &q); err != nil {
			return fmt.Errorf("%s: torn body: %v", statements[k], err)
		}
		if q.RowCount != len(q.Rows) {
			return fmt.Errorf("%s: row_count %d over %d rows", statements[k], q.RowCount, len(q.Rows))
		}
		if k < 2 {
			if lo, hi := baseRows+int(ackedBefore)*batchRows, baseRows+int(sentAfter)*batchRows; q.RowCount < lo || q.RowCount > hi {
				return fmt.Errorf("%s: %d rows, but %d were acknowledged before the request and %d sent by its answer", statements[k], q.RowCount, lo, hi)
			}
			for i, r := range q.Rows {
				if r[0].(float64) != float64(i) {
					return fmt.Errorf("%s: row %d has id %v: not the table in order", statements[k], i, r[0])
				}
			}
			return nil
		}
		if q.RowCount != genRows {
			return fmt.Errorf("%s: %d rows, every generation has %d", statements[k], q.RowCount, genRows)
		}
		tag := q.Rows[0][3].(float64)
		for i, r := range q.Rows {
			if r[3].(float64) != tag || r[0].(float64) != float64(i) {
				return fmt.Errorf("%s: row %d is %v in an answer of generation %v: torn", statements[k], i, r, tag)
			}
		}
		if tag < float64(genBefore) {
			return fmt.Errorf("%s: served generation %v after generation %d was acknowledged", statements[k], tag, genBefore)
		}
		return nil
	}
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if err := check((g + i) % len(statements)); err != nil {
					report(err)
					return
				}
			}
		}(g)
	}
	writers.Wait()
	close(done)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Quiescent: every statement answers its final state.
	for k := range statements {
		if err := check(k); err != nil {
			t.Errorf("after the writers stopped: %v", err)
		}
	}
	st := getStats(t, c, ts.URL).Cache
	if st.Hits == 0 || st.Upgrades == 0 || st.UsedBytes > 24<<10 {
		t.Errorf("cache stats %+v: the run must have hit, upgraded, and stayed inside its 24 KiB", st)
	}
}

// TestTablesBigintExact: /tables parses each BIGINT cell from its JSON
// literal, so values beyond 2⁵³ keep every digit, 3.0 and 1e3 are still
// BIGINTs, and a fraction or a value beyond int64 is a 400 that names the
// literal. Decoding cells into float64 first answered 2⁵³+1 as 2⁵³ and
// refused 2⁶³−1 as non-integral.
func TestTablesBigintExact(t *testing.T) {
	sess := skysql.NewSession(skysql.WithExecutors(2), skysql.WithResultCache(0))
	defer sess.Close()
	ts := httptest.NewServer(server.New(sess))
	defer ts.Close()
	c := ts.Client()

	table := json.RawMessage(`{"name":"b","columns":[{"name":"id","type":"BIGINT"},{"name":"x","type":"DOUBLE"}],
		"rows":[[9007199254740993,0.1],[1152921504606846977,1e300],[9223372036854775807,-2.5],
		[-9223372036854775808,null],[3.0,1],[1e3,7],[-12.50e1,0],[null,3]]}`)
	if status, raw := post(t, c, ts.URL+"/tables", table); status != http.StatusOK {
		t.Fatalf("create: %d %s", status, raw)
	}
	status, raw := post(t, c, ts.URL+"/query", server.QueryRequest{SQL: "SELECT id, x FROM b"})
	if status != http.StatusOK {
		t.Fatalf("query: %d %s", status, raw)
	}
	var got struct{ Rows [][]json.Number }
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	want := "[[9007199254740993 0.1] [1152921504606846977 1e+300] [9223372036854775807 -2.5] " +
		"[-9223372036854775808 ] [3 1] [1000 7] [-125 0] [ 3]]"
	if fmt.Sprint(got.Rows) != want {
		t.Errorf("rows:\n got  %v\n want %s", got.Rows, want)
	}

	for _, bad := range []struct{ cell, msg string }{
		{`3.5`, "3.5"},
		{`9223372036854775808`, "9223372036854775808"},
		{`-9223372036854775809`, "-9223372036854775809"},
		{`1e19`, "1e19"},
		{`12.25e1`, "12.25e1"},
		{`1e99999999999`, "1e99999999999"},
		{`"7"`, "7"},
	} {
		body := json.RawMessage(`{"name":"bad","columns":[{"name":"id","type":"BIGINT"}],"rows":[[` + bad.cell + `]]}`)
		status, raw := post(t, c, ts.URL+"/tables", body)
		if status != http.StatusBadRequest || !strings.Contains(decodeErr(t, raw).Error, bad.msg) {
			t.Errorf("BIGINT %s: %d %s, want 400 naming %s", bad.cell, status, raw, bad.msg)
		}
	}
	body := json.RawMessage(`{"name":"bad","columns":[{"name":"x","type":"DOUBLE"}],"rows":[[1e400]]}`)
	if status, raw := post(t, c, ts.URL+"/tables", body); status != http.StatusBadRequest || !strings.Contains(decodeErr(t, raw).Error, "1e400") {
		t.Errorf("DOUBLE 1e400: %d %s, want 400 naming the literal", status, raw)
	}
}

// TestTablesRejectsBadColumnNames: a table whose columns share a name
// (column references resolve case-insensitively) or have an empty one is
// refused with 400 naming the column, and is not registered.
func TestTablesRejectsBadColumnNames(t *testing.T) {
	sess := skysql.NewSession(skysql.WithExecutors(1))
	defer sess.Close()
	ts := httptest.NewServer(server.New(sess))
	defer ts.Close()
	c := ts.Client()

	for _, tc := range []struct{ columns, msg string }{
		{`[{"name":"a","type":"BIGINT"},{"name":"A","type":"DOUBLE"}]`, `two columns named "a"`},
		{`[{"name":"a","type":"BIGINT"},{"name":"","type":"DOUBLE"}]`, "column 1"},
	} {
		body := json.RawMessage(`{"name":"t","columns":` + tc.columns + `,"rows":[[1,2]]}`)
		status, raw := post(t, c, ts.URL+"/tables", body)
		if status != http.StatusBadRequest || !strings.Contains(decodeErr(t, raw).Error, tc.msg) {
			t.Errorf("columns %s: %d %s, want 400 naming %s", tc.columns, status, raw, tc.msg)
		}
		if got := sess.Tables(); len(got) != 0 {
			t.Errorf("columns %s: table registered anyway: %v", tc.columns, got)
		}
	}
}
