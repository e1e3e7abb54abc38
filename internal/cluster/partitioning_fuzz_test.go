package cluster

import (
	"fmt"
	"math"
	"testing"

	"skysql/internal/skyline"
	"skysql/internal/types"
)

// keyPalette holds the key values the fuzzer draws besides a small integer
// grid: both zeros, both infinities, extremes of either sign and values
// whose normalization rounds.
var keyPalette = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1, -1, 0.1, 1.0 / 3,
	1e300, -1e300, 5e-324, 2.5, 4, 5, 1 << 53, -(1 << 53),
}

// partitionKeysInput turns fuzz bytes into rows of dims key values plus a
// trailing row id, and the batch a decode of their keys gives under dirs.
// Columns flagged in constMask hold their first value in every row (span
// 0). ok=false when the keys do not decode.
func partitionKeysInput(data []byte, dims int, dirs []skyline.Dir, constMask uint8) ([]types.Row, *skyline.Batch, bool) {
	n := len(data) / dims
	if n > 64 {
		n = 64
	}
	rows := make([]types.Row, n)
	pts := make([]skyline.Point, n)
	for i := range rows {
		row := make(types.Row, dims+1)
		for d := 0; d < dims; d++ {
			b := data[d*n+i]
			if constMask&(1<<d) != 0 {
				b = data[d*n]
			}
			var v float64
			if b&0x80 != 0 {
				v = keyPalette[int(b)%len(keyPalette)]
			} else {
				v = float64(int(b&0x0f) - 4) // ties on a small grid
			}
			row[d] = types.Float(v)
			if b&0x40 != 0 && v == math.Trunc(v) && math.Abs(v) <= 1<<53 && !(v == 0 && math.Signbit(v)) {
				row[d] = types.Int(int64(v))
			}
		}
		row[dims] = types.Int(int64(i))
		rows[i] = row
		pts[i] = skyline.Point{Dims: row[:dims], Row: row}
	}
	b, ok := skyline.DecodeBatch(pts, dirs, false, nil)
	return rows, b, ok
}

// FuzzPartitionKeys: for keys that decode, the boxed key source
// (ExchangePartitioned over a KeyFunc) and the batch source
// (ExchangePartitionedColumnar over the decoded batch) put every row in
// the same bucket, in the same order, under Grid, Angle and Zorder, for
// 1–8 dimensions (any of them MAX) and 1–8 targets. The inputs cover ±0,
// ±Inf, ties, BIGINT and DOUBLE keys and constant columns (span 0). The
// committed corpus under testdata/fuzz/FuzzPartitionKeys runs as part of
// `go test`.
func FuzzPartitionKeys(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(1), uint8(3), uint8(2), uint8(0))
	f.Add([]byte{0x80, 0x81, 0x82, 0x83, 0x88, 0x89, 0x84, 0x85, 0x44, 0x45, 0x46, 0x47}, uint8(2), uint8(4), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, dims, targets, maxMask, constMask uint8) {
		d := 1 + int(dims%8)
		if len(data) < d {
			return
		}
		dirs := make([]skyline.Dir, d)
		minimize := make([]bool, d)
		for i := range dirs {
			dirs[i], minimize[i] = skyline.Min, true
			if maxMask&(1<<i) != 0 {
				dirs[i], minimize[i] = skyline.Max, false
			}
		}
		rows, batch, ok := partitionKeysInput(data, d, dirs, constMask)
		if !ok {
			return
		}
		key := func(r types.Row) (types.Row, error) { return r[:d], nil }
		executors := 1 + int(targets%8)
		for _, dist := range []Distribution{Grid, Angle, Zorder} {
			boxed, err := NewContext(executors).ExchangePartitioned(NewDataset(rows), dist, key, minimize)
			if err != nil {
				t.Fatalf("%v boxed: %v", dist, err)
			}
			col, err := NewContext(executors).ExchangePartitionedColumnar(rows, batch, dist)
			if err != nil {
				t.Fatalf("%v batch: %v", dist, err)
			}
			if got, want := bucketIDs(col), bucketIDs(boxed); got != want {
				t.Fatalf("%v, %d dims, %d targets: batch source %s, boxed source %s (rows %v)", dist, d, executors, got, want, rows)
			}
		}
	})
}

// bucketIDs renders the row ids of each partition, in order.
func bucketIDs(ds *Dataset) string {
	out := ""
	for _, p := range ds.Parts {
		out += "["
		for _, r := range p {
			out += fmt.Sprint(r[len(r)-1].AsInt(), " ")
		}
		out += "]"
	}
	return out
}
