// Package stream provides incremental skyline maintenance, the engine-side
// groundwork for the paper's §7 "integration into structured streaming"
// future work. An Incremental skyline absorbs tuples one at a time and
// keeps the current skyline available at every point, emitting the
// admission/eviction events a streaming sink would forward.
//
// The implementation reuses the Block-Nested-Loop window invariant (§5.6):
// the window always holds the exact skyline of the tuples seen so far.
// This relies on dominance transitivity and is therefore restricted to
// complete data; streams with NULLs in skyline dimensions must be routed
// through batch recomputation, mirroring the batch engine's algorithm
// selection.
package stream

import (
	"fmt"

	"skysql/internal/skyline"
	"skysql/internal/types"
)

// Event describes one change of the maintained skyline.
type Event struct {
	// Admitted is true when the tuple joined the skyline; false when it
	// was rejected on arrival.
	Admitted bool
	// Evicted lists tuples that left the skyline because the new tuple
	// dominates them.
	Evicted []skyline.Point
}

// Incremental maintains the skyline of a growing dataset.
type Incremental struct {
	dirs     []skyline.Dir
	distinct bool
	window   []skyline.Point
	stats    *skyline.Stats
	seen     int
}

// NewIncremental creates a maintainer for the given dimension directions.
func NewIncremental(dirs []skyline.Dir, distinct bool) *Incremental {
	return &Incremental{dirs: dirs, distinct: distinct, stats: &skyline.Stats{}}
}

// Seen returns the number of tuples absorbed so far.
func (inc *Incremental) Seen() int { return inc.seen }

// Size returns the current skyline size.
func (inc *Incremental) Size() int { return len(inc.window) }

// Stats exposes the dominance-test counters.
func (inc *Incremental) Stats() *skyline.Stats { return inc.stats }

// Skyline returns a copy of the current skyline.
func (inc *Incremental) Skyline() []skyline.Point {
	out := make([]skyline.Point, len(inc.window))
	copy(out, inc.window)
	return out
}

// check validates one dimension vector: matching width, complete data.
func (inc *Incremental) check(dims types.Row) error {
	if len(dims) != len(inc.dirs) {
		return fmt.Errorf("stream: tuple has %d dimensions, maintainer has %d", len(dims), len(inc.dirs))
	}
	for _, v := range dims {
		if v.IsNull() {
			return fmt.Errorf("stream: NULL skyline dimension; incremental maintenance requires complete data")
		}
	}
	return nil
}

// Add absorbs one tuple. dims must match the dimension count; row is the
// payload carried through to Skyline(). A failed Add (dims refused, or a
// dominance test erroring on incomparable value kinds) leaves the
// maintainer exactly as it was: the window is only rewritten once the
// whole scan has succeeded.
func (inc *Incremental) Add(dims types.Row, row types.Row) (Event, error) {
	if err := inc.check(dims); err != nil {
		return Event{}, err
	}
	t := skyline.Point{Dims: dims, Row: row}
	// Accumulate counters locally for the whole window scan and merge once,
	// matching the batch engine's per-invocation Stats flushing.
	var local skyline.Counters
	defer inc.stats.Merge(&local)
	var evictedAt []int // window indices t dominates, ascending
	for wi, w := range inc.window {
		rel, err := skyline.Compare(w.Dims, t.Dims, inc.dirs, &local)
		if err != nil {
			return Event{}, err
		}
		switch {
		case rel == skyline.LeftDominates, rel == skyline.Equal && inc.distinct:
			// t rejected. By transitivity it dominated nothing before w, so
			// the window stays as it is.
			inc.seen++
			return Event{}, nil
		case rel == skyline.RightDominates:
			evictedAt = append(evictedAt, wi)
		}
	}
	inc.seen++
	var evicted []skyline.Point
	if len(evictedAt) > 0 {
		evicted = make([]skyline.Point, 0, len(evictedAt))
		keep := inc.window[:evictedAt[0]]
		for wi := evictedAt[0]; wi < len(inc.window); wi++ {
			if len(evicted) < len(evictedAt) && evictedAt[len(evicted)] == wi {
				evicted = append(evicted, inc.window[wi])
			} else {
				keep = append(keep, inc.window[wi])
			}
		}
		inc.window = keep
	}
	inc.window = append(inc.window, t)
	return Event{Admitted: true, Evicted: evicted}, nil
}
