package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"skysql"
	"skysql/internal/datagen"
	"skysql/internal/server"
)

// BenchmarkQueryHit times POST /query answered from the result cache, over
// a real loopback connection, for hot_serve's 113 KB answer (its fourth
// shape over 5 000 anti-correlated rows: 2 718 rows of five columns). Run
// with -benchmem; ns/op and allocs/op include the test's own HTTP client.
//
//   - first_encode: the entry holds rows only, so the request encodes them
//     (and leaves the text on the entry). Each iteration invalidates that
//     text with an untimed one-row append the query's filter rejects.
//   - bytes_hit: the entry carries the text; the request copies it out.
//     No row is read: the hit's memory charge is the size the entry
//     recorded when it was stored, so what is left is the plan-memo and
//     cache lookups, the copy and net/http on both ends.
func BenchmarkQueryHit(b *testing.B) {
	const sql = "SELECT * FROM t WHERE d1 < 0.4 SKYLINE OF COMPLETE d1 MIN, d2 MIN, d3 MIN, d4 MIN"
	for _, mode := range []string{"first_encode", "bytes_hit"} {
		b.Run(mode, func(b *testing.B) {
			sess := skysql.NewSession(skysql.WithExecutors(2), skysql.WithResultCache(0))
			defer sess.Close()
			tab := datagen.Synthetic(datagen.AntiCorrelated, 5000, 4, datagen.Config{Seed: 1, Complete: true})
			sess.RegisterTable(tab)
			ts := httptest.NewServer(server.New(sess))
			defer ts.Close()
			c := ts.Client()
			body, err := json.Marshal(server.QueryRequest{SQL: sql})
			if err != nil {
				b.Fatal(err)
			}
			var answer bytes.Buffer
			query := func() {
				resp, err := c.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				answer.Reset()
				_, err = answer.ReadFrom(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d, read error %v", resp.StatusCode, err)
				}
			}
			query() // miss: computes, stores, encodes
			var q server.QueryResponse
			if err := json.Unmarshal(answer.Bytes(), &q); err != nil {
				b.Fatal(err)
			}
			// d1 = 1 fails the filter: the entry is upgraded, its rows stay.
			outside := []skysql.Row{{skysql.Int(-1), skysql.Float(1), skysql.Float(1), skysql.Float(1), skysql.Float(1)}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "first_encode" {
					b.StopTimer()
					if err := sess.AppendRows("t", outside); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				query()
			}
			b.StopTimer()
			if st := sess.ResultCacheStats(); st.Misses != 1 {
				b.Fatalf("%d cache misses, want only the warm-up's", st.Misses)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(q.RowCount), "ns/row")
			b.ReportMetric(float64(answer.Len()), "bytes/answer")
		})
	}
}
