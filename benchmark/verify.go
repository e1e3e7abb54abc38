package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"skysql"
	"skysql/internal/catalog"
	"skysql/internal/types"
)

// Output verification runs before every timed window and is never timed.
// Each distinct query's served rows must equal, byte for byte, what a
// fresh cache-less session computes on the boxed path (no columnar
// kernel, no morsel parallelism), and on a slice of the table the
// integrated operator must agree with the paper's Listing-4 plain-SQL
// rewrite. The timed loops then check only status and row_count against
// the counts verified here.

// renderRows is the JSON text skysqld writes for a result's rows.
func renderRows(rows []types.Row) ([]byte, error) {
	recs := make([][]interface{}, len(rows))
	for i, r := range rows {
		recs[i] = jsonRow(r)
	}
	return json.Marshal(recs)
}

// servedRows cuts the rows array and the row count out of a /query
// answer without re-encoding either.
func servedRows(body []byte) ([]byte, int, error) {
	var resp struct {
		Rows     json.RawMessage `json:"rows"`
		RowCount int             `json:"row_count"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, 0, fmt.Errorf("decoding /query answer: %w", err)
	}
	return resp.Rows, resp.RowCount, nil
}

// boxedSession is the oracle: same data, same executor count, every
// dominance test through the boxed compare path, whole-partition tasks.
func boxedSession(d *dataset) (*skysql.Session, error) {
	sess := skysql.NewSession(skysql.WithExecutors(executors),
		skysql.WithoutColumnarKernel(), skysql.WithoutMorselParallelism())
	if _, err := d.register(sess); err != nil {
		sess.Close()
		return nil, err
	}
	return sess, nil
}

// fetch sends a query op and returns its rows array and row count.
func fetch(c *conn, base string, o *op) ([]byte, int, error) {
	res := c.do(base, o)
	if !res.ok() {
		return nil, 0, fmt.Errorf("%s", res.describe())
	}
	rows, n, err := servedRows(c.buf.Bytes())
	if err != nil {
		return nil, 0, err
	}
	return append([]byte(nil), rows...), n, nil
}

// verification is what the checks hand to the timed loops.
type verification struct {
	want []int // verified row count per query shape, table in its initial state
	// wantRound is the verified row count of every op of an append_mix
	// round, in op order (-1 for appends); finalRows is the cold answer
	// per shape over the round's final table.
	wantRound []int
	finalRows [][]byte
	checks    int
	problems  []string
}

func (v *verification) problem(format string, args ...interface{}) {
	v.problems = append(v.problems, fmt.Sprintf(format, args...))
}

// verify runs every check of a workload against a fresh fixture.
func verify(d *dataset) (*verification, error) {
	v := &verification{want: make([]int, len(d.queries))}
	fx, _, err := setUp(d, nil)
	if err != nil {
		return nil, fmt.Errorf("verification set-up: %w", err)
	}
	defer fx.close()
	oracle, err := boxedSession(d)
	if err != nil {
		return nil, fmt.Errorf("verification oracle: %w", err)
	}
	defer oracle.Close()
	c := newConn()
	defer c.close()

	for i, q := range d.queries {
		served, n, err := fetch(c, fx.base, d.qops[i])
		if err != nil {
			return nil, fmt.Errorf("verifying %q: %w", q, err)
		}
		v.want[i] = n
		v.compare(oracle, q, served, "initial table")
	}
	if err := v.rewriteCheck(d); err != nil {
		return nil, err
	}
	if d.spec.drive == driveAppend {
		if err := v.appendRound(d, fx, oracle, c); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// compare checks served rows against the oracle's answer to q.
func (v *verification) compare(oracle *skysql.Session, q string, served []byte, when string) {
	v.checks++
	rows, err := oracle.Query(q)
	if err != nil {
		v.problem("oracle failed on %q (%s): %v", q, when, err)
		return
	}
	want, err := renderRows(rows)
	if err != nil {
		v.problem("rendering oracle rows of %q: %v", q, err)
		return
	}
	if !bytes.Equal(served, want) {
		v.problem("served rows of %q differ from the boxed cache-less answer (%s): %d vs %d bytes",
			q, when, len(served), len(want))
	}
}

// rewriteCheck compares the integrated operator with the Listing-4
// plain-SQL rewrite, as row multisets, over the dataset's prefix slice.
func (v *verification) rewriteCheck(d *dataset) error {
	sess := skysql.NewSession(skysql.WithExecutors(executors))
	defer sess.Close()
	t, err := catalog.NewTable(tableName, d.schema, d.prefix)
	if err != nil {
		return err
	}
	sess.RegisterTable(t)
	for _, q := range d.queries {
		v.checks++
		rewritten, err := sess.RewriteSkyline(q, false)
		if err != nil {
			return fmt.Errorf("rewriting %q: %w", q, err)
		}
		got, err := sess.Query(q)
		if err != nil {
			return fmt.Errorf("integrated %q on the prefix: %w", q, err)
		}
		ref, err := sess.Query(rewritten)
		if err != nil {
			return fmt.Errorf("rewrite of %q on the prefix: %w", q, err)
		}
		if a, b := sortedLines(got), sortedLines(ref); !equalLines(a, b) {
			v.problem("integrated skyline of %q has %d rows, the Listing-4 rewrite %d, or they differ, on the %d-row slice",
				q, len(a), len(b), len(d.prefix))
		}
	}
	return nil
}

func sortedLines(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(jsonRow(r)...)
	}
	sort.Strings(out)
	return out
}

func equalLines(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// roundOps is the fixed op sequence of one append_mix round: roundSize
// cycles of one append and cycleReads reads round-robin over the shapes.
func roundOps(d *dataset) []*op {
	var ops []*op
	read := 0
	for cyc := 0; cyc < roundSize; cyc++ {
		ops = append(ops, d.appends[cyc])
		for j := 0; j < cycleReads; j++ {
			ops = append(ops, d.qops[read%len(d.qops)])
			read++
		}
	}
	return ops
}

// appendRound plays one round against the served (cached) session and
// the oracle side by side: after every append each shape's served answer
// must still equal the oracle's recompute. It leaves the verified row
// count of every op, and the cold answers over the final table.
func (v *verification) appendRound(d *dataset, fx *fixture, oracle *skysql.Session, c *conn) error {
	current := make([][]byte, len(d.queries)) // oracle-checked rows per shape since the last append
	for _, o := range roundOps(d) {
		if o.kind == opAppend {
			if res := c.do(fx.base, o); !res.ok() {
				return fmt.Errorf("verification append: %s", res.describe())
			}
			if err := oracle.AppendRows(tableName, o.rows); err != nil {
				return fmt.Errorf("oracle append: %w", err)
			}
			for i := range current {
				current[i] = nil
			}
			v.wantRound = append(v.wantRound, -1)
			continue
		}
		served, n, err := fetch(c, fx.base, o)
		if err != nil {
			return fmt.Errorf("verifying %q after an append: %w", d.queries[o.shape], err)
		}
		v.wantRound = append(v.wantRound, n)
		if current[o.shape] == nil {
			v.compare(oracle, d.queries[o.shape], served, "after an append")
			current[o.shape] = served
		} else if !bytes.Equal(served, current[o.shape]) {
			v.checks++
			v.problem("two reads of %q between the same appends differ", d.queries[o.shape])
		}
	}
	// Cold recompute over the final table: a fresh default session with
	// no cache, the state every timed round must end in.
	cold := skysql.NewSession(skysql.WithExecutors(executors))
	defer cold.Close()
	t, err := catalog.NewTable(tableName, d.schema, fx.table.Snapshot())
	if err != nil {
		return err
	}
	cold.RegisterTable(t)
	for _, q := range d.queries {
		rows, err := cold.Query(q)
		if err != nil {
			return fmt.Errorf("cold recompute of %q: %w", q, err)
		}
		text, err := renderRows(rows)
		if err != nil {
			return err
		}
		v.finalRows = append(v.finalRows, text)
	}
	return nil
}

// checkFinal compares a timed round's last served answers with the cold
// recompute, returning how many differ.
func (v *verification) checkFinal(d *dataset, fx *fixture, c *conn) (attempted, failed int, first string) {
	for i, o := range d.qops {
		attempted++
		served, _, err := fetch(c, fx.base, o)
		if err == nil && !bytes.Equal(served, v.finalRows[i]) {
			err = fmt.Errorf("differs from the cold recompute over the final table")
		}
		if err != nil {
			failed++
			if first == "" {
				first = fmt.Sprintf("final answer of %q: %v", d.queries[i], err)
			}
		}
	}
	return attempted, failed, first
}
