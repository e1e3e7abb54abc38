package core

import (
	"fmt"
	"sort"

	"skysql/internal/physical"
	"skysql/internal/types"
)

// VerifyAgainstReference executes a skyline query through the integrated
// operator AND through its generated plain-SQL rewriting, and checks that
// both return the same multiset of rows. This is the §5.9 correctness
// procedure ("we have verified that our integrated skyline computation
// yields the same result as the equivalent plain SQL query"), packaged so
// tests and the harness can apply it to any query.
//
// The incomplete-dominance rewriting is selected automatically from the
// query's COMPLETE flag and the resolved nullability of its dimensions,
// mirroring Listing 8.
func (e *Engine) VerifyAgainstReference(query string, executors int) error {
	compiled, err := e.CompileSQL(query, physical.Options{})
	if err != nil {
		return fmt.Errorf("core: compiling integrated query: %w", err)
	}
	intRes, err := e.Run(compiled, executors)
	if err != nil {
		return fmt.Errorf("core: running integrated query: %w", err)
	}
	// Incomplete semantics iff the plan selected an incomplete algorithm.
	incomplete := false
	var walk func(op physical.Operator)
	walk = func(op physical.Operator) {
		if g, ok := op.(*physical.GlobalSkylineExec); ok && g.Incomplete {
			incomplete = true
		}
		for _, c := range op.Children() {
			walk(c)
		}
	}
	walk(compiled.Physical)

	ref, err := RewriteSkylineStatement(query, incomplete)
	if err != nil {
		return fmt.Errorf("core: rewriting to reference SQL: %w", err)
	}
	refRes, err := e.Query(ref, executors, physical.Options{})
	if err != nil {
		return fmt.Errorf("core: running reference query: %w", err)
	}
	if err := sameRowMultiset(intRes.Rows, refRes.Rows); err != nil {
		return fmt.Errorf("core: integrated and reference results differ for %q: %w", query, err)
	}
	return nil
}

func sameRowMultiset(a, b []types.Row) error {
	if len(a) != len(b) {
		return fmt.Errorf("row counts %d vs %d", len(a), len(b))
	}
	as := make([]string, len(a))
	bs := make([]string, len(b))
	for i := range a {
		as[i], bs[i] = a[i].String(), b[i].String()
	}
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return fmt.Errorf("first differing row: %s vs %s", as[i], bs[i])
		}
	}
	return nil
}
