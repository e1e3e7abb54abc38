package cluster

import (
	"fmt"
	"math"
	"sort"

	"skysql/internal/skyline"
	"skysql/internal/types"
)

// This file implements the alternative partitioning schemes the paper
// lists as future work for the local skyline computation (§7, citing
// [Vlachou et al. 2008] for angle-based partitioning and [Tang et al.
// 2019] for grid-based schemes). Both partition on the skyline-dimension
// values themselves rather than arbitrarily, which tends to make local
// skylines more selective and shrinks the input of the non-parallelizable
// global phase.
//
// One core (bucket) assigns every tuple to its partition from raw float64
// keys, and two key sources feed it. The boxed source
// (ExchangePartitioned) extracts key rows one tuple at a time through a
// KeyFunc. The batch source (ExchangePartitionedColumnar) reads a decoded
// skyline.Batch, whose MAX dimensions are stored negated: negation is
// exact, so negating them back recovers every raw key bit for bit, and
// the core assigns each tuple exactly the bucket the boxed source would.
// Partitions carved out of a batch carry their Batch.Select slice forward
// as a sidecar, so the local skylines downstream of the exchange never
// re-decode. The partition count itself is adaptive under
// Context.AdaptiveExchange or an explicit TargetRowsPerPartition: it
// derives from the observed input size instead of the static executor
// count.

// Grid and Angle distributions (continuing the Distribution enum).
const (
	// Grid partitions the key space into per-dimension equi-width buckets
	// and assigns whole cells to executors.
	Grid Distribution = iota + 100
	// Angle converts keys to hyperspherical coordinates and partitions by
	// the first angle, the scheme of Vlachou et al.: points on the same
	// ray from the origin compete within one partition, which prunes well
	// on anti-correlated data.
	Angle
	// Zorder computes a Z-address for every tuple (bit-interleaved bucket
	// coordinates, [Lee et al. 2010]) and range-partitions the Z-order —
	// the paper's §7 "long-term" partitioning scheme.
	Zorder
)

// ExchangePartitioned repartitions under the Grid, Angle or Zorder
// distribution from boxed keys: key extracts the (numeric) skyline-
// dimension values of a row, and minimize flags which dimensions are
// minimized (true) vs maximized (false). A NULL key counts as 0 (the
// schemes serve complete data; this degrades gracefully), and a
// non-numeric key refuses the exchange.
func (c *Context) ExchangePartitioned(in *Dataset, dist Distribution, key KeyFunc, minimize []bool) (*Dataset, error) {
	rows := in.Gather()
	var keys []float64
	width := 0
	for i, row := range rows {
		kv, err := key(row)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			width = len(kv)
			keys = make([]float64, 0, len(rows)*width)
		}
		for _, v := range kv {
			switch {
			case v.IsNull():
				keys = append(keys, 0)
			case v.IsNumeric():
				keys = append(keys, v.AsFloat())
			default:
				return nil, fmt.Errorf("cluster: %v partitioning requires numeric dimensions", dist)
			}
		}
	}
	flip := make([]bool, width)
	for d := range flip {
		flip[d] = d < len(minimize) && !minimize[d]
	}
	return c.bucket(rows, keys, flip, nil, dist)
}

// ExchangePartitionedColumnar repartitions rows under Grid/Angle/Zorder
// from the decoded numeric columns of batch, which must be index-aligned
// with rows and hold only MIN/MAX dimensions. Every output partition
// carries its Batch.Select slice as a columnar sidecar, so downstream
// local skylines run decode-free.
func (c *Context) ExchangePartitionedColumnar(rows []types.Row, batch *skyline.Batch, dist Distribution) (*Dataset, error) {
	if len(rows) > 0 && (batch.Len() != len(rows) || batch.KeyDims() > 0 || batch.NumDims() == 0) {
		return nil, fmt.Errorf("cluster: columnar %v exchange needs an aligned numeric-only batch", dist)
	}
	var flip []bool
	var keys []float64
	if len(rows) > 0 {
		flip = make([]bool, batch.NumDims())
		for d, dir := range batch.Dirs() {
			flip[d] = dir == skyline.Max
		}
		keys = make([]float64, 0, len(rows)*len(flip))
		for i := range rows {
			for d, v := range batch.NumRow(i) {
				if flip[d] {
					v = -v // the raw key, exactly
				}
				keys = append(keys, v)
			}
		}
	}
	return c.bucket(rows, keys, flip, batch, dist)
}

// bucket is the one place Grid, Angle and Zorder assign partitions. keys
// holds the raw keys of rows, row-major, len(flip) per row; flip marks
// the MAX dimensions. Each dimension is rescaled to [0,1] as
// (v-min)/span, then turned so 0 is best (1-v on MAX), and the tuple goes
// to its gridCell or angleBucket, or to its range of the stable Z-order.
// Empty partitions are dropped. With a batch (index-aligned with rows)
// every partition carries its Batch.Select slice, unless the memory
// governor dropped sidecars. The gathered rows stay charged to the
// metrics while the partitions are assembled.
func (c *Context) bucket(rows []types.Row, keys []float64, flip []bool, batch *skyline.Batch, dist Distribution) (*Dataset, error) {
	if err := c.CheckBudget(); err != nil {
		return nil, err
	}
	c.Metrics.Add(RowsShuffled, int64(len(rows)))
	if len(rows) == 0 {
		return &Dataset{}, nil
	}
	var charged int64
	for _, r := range rows {
		charged += r.MemSize()
	}
	c.Metrics.Alloc(charged)
	defer c.Metrics.Free(charged)

	width := len(flip)
	mins := make([]float64, width)
	maxs := make([]float64, width)
	for d := range mins {
		mins[d], maxs[d] = math.Inf(1), math.Inf(-1)
	}
	for i := range rows {
		for d, v := range keys[i*width : (i+1)*width] {
			if v < mins[d] {
				mins[d] = v
			}
			if v > maxs[d] {
				maxs[d] = v
			}
		}
	}
	nk := make([]float64, width)
	norm := func(i int) []float64 {
		for d, v := range keys[i*width : (i+1)*width] {
			span := maxs[d] - mins[d]
			if span == 0 {
				nk[d] = 0
				continue
			}
			out := (v - mins[d]) / span
			if flip[d] {
				out = 1 - out
			}
			nk[d] = out
		}
		return nk
	}

	target := c.partitionTarget(len(rows))
	var buckets [][]int
	switch dist {
	case Grid, Angle:
		buckets = make([][]int, target)
		for i := range rows {
			var p int
			if dist == Grid {
				p = gridCell(norm(i), target)
			} else {
				p = angleBucket(norm(i), target)
			}
			buckets[p] = append(buckets[p], i)
		}
	case Zorder:
		zs := make([]uint64, len(rows))
		for i := range rows {
			zs[i] = skyline.ZAddress(norm(i))
		}
		order := zorderedIndices(zs)
		for _, b := range evenChunkBounds(len(order), target) {
			buckets = append(buckets, order[b[0]:b[1]])
		}
	default:
		return nil, fmt.Errorf("cluster: %v is not a partitioning scheme", dist)
	}

	out := &Dataset{}
	attach := batch != nil && !c.SidecarsDropped() // under memory degradation, buckets go boxed
	for _, idx := range buckets {
		if len(idx) == 0 {
			continue
		}
		part := make([]types.Row, len(idx))
		for i, j := range idx {
			part[i] = rows[j]
		}
		out.Parts = append(out.Parts, part)
		if attach {
			out.Batches = append(out.Batches, batch.Select(idx))
		}
	}
	return out, nil
}

// zorderedIndices returns row indices sorted by Z-address. The sort is
// stable, so tuples with equal addresses keep their input order.
func zorderedIndices(zs []uint64) []int {
	order := make([]int, len(zs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return zs[order[a]] < zs[order[b]] })
	return order
}

// gridCell buckets each dimension into g equi-width cells (g chosen so the
// cell count roughly matches the executor count) and folds the cell
// coordinates into a partition index.
func gridCell(k []float64, executors int) int {
	g := int(math.Ceil(math.Pow(float64(executors), 1/float64(len(k)))))
	if g < 1 {
		g = 1
	}
	cell := 0
	for _, v := range k {
		if v != v {
			v = 0 // NaN: an infinite key span normalizes to it; first cell
		}
		b := int(v * float64(g))
		if b >= g {
			b = g - 1
		}
		cell = cell*g + b
	}
	return cell % executors
}

// angleBucket maps the point to its first hyperspherical angle over the
// normalized coordinates and buckets [0, π/2] uniformly.
func angleBucket(k []float64, executors int) int {
	if len(k) == 1 {
		v := k[0]
		if v != v {
			v = 0 // NaN: an infinite key span normalizes to it
		}
		b := int(v * float64(executors))
		if b >= executors {
			b = executors - 1
		}
		return b
	}
	// First angle: atan2 of the norm of the tail against the head.
	var tail float64
	for _, v := range k[1:] {
		tail += v * v
	}
	phi := math.Atan2(math.Sqrt(tail), k[0]) // ∈ [0, π/2] for non-negative coords
	if phi != phi {
		phi = 0 // a NaN coordinate: an infinite key span normalizes to it
	}
	b := int(phi / (math.Pi / 2) * float64(executors))
	if b >= executors {
		b = executors - 1
	}
	if b < 0 {
		b = 0
	}
	return b
}
