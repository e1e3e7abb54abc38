package skyline

import (
	"fmt"
	"math/rand"
	"testing"

	"skysql/internal/cost"
	"skysql/internal/datagen"
	"skysql/internal/types"
)

// genPoints builds n points with the given correlation sign: +1 correlated,
// 0 independent, -1 anti-correlated, over d minimized dimensions.
func genPoints(rng *rand.Rand, n, d int, corr int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		dims := make(types.Row, d)
		base := rng.Float64()
		for k := 0; k < d; k++ {
			var v float64
			switch corr {
			case 1:
				v = base + rng.NormFloat64()*0.05
			case -1:
				if k == 0 {
					v = base
				} else {
					v = 1 - base + rng.NormFloat64()*0.05
				}
			default:
				v = rng.Float64()
			}
			dims[k] = types.Float(v)
		}
		pts[i] = Point{Dims: dims, Row: dims}
	}
	return pts
}

func benchAlgo(b *testing.B, name string, fn func([]Point, []Dir, bool, *Stats) ([]Point, error)) {
	for _, n := range []int{1000, 10000} {
		for _, d := range []int{2, 4, 6} {
			b.Run(fmt.Sprintf("%s/n=%d/d=%d", name, n, d), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				dirs := make([]Dir, d)
				pts := genPoints(rng, n, d, 0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := fn(pts, dirs, false, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkBNL(b *testing.B) {
	benchAlgo(b, "bnl", func(p []Point, d []Dir, dis bool, s *Stats) ([]Point, error) {
		return BNL(p, d, dis, Compare, s)
	})
}

func BenchmarkGlobalIncomplete(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	dirs := []Dir{Min, Min, Min}
	pts := genPoints(rng, 2000, 3, 0)
	for i := range pts {
		if rng.Float64() < 0.1 {
			pts[i].Dims[rng.Intn(3)] = types.Null
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GlobalIncomplete(pts, dirs, false, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDominanceBNLBoxed / BenchmarkDominanceBNLColumnar are the
// kernel A/B micro-benchmarks (CI runs them with -bench=Dominance): the
// same 10k-point BNL skyline through the boxed CompareFunc path and
// through DecodeBatch + the columnar kernel (decode cost included). The
// acceptance bar for the kernel is a ≥3x speedup at 2–6 dimensions.
func BenchmarkDominanceBNLBoxed(b *testing.B) {
	for _, d := range []int{2, 4, 6} {
		b.Run(fmt.Sprintf("n=10000/d=%d", d), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			dirs := make([]Dir, d)
			pts := genPoints(rng, 10000, d, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := BNL(pts, dirs, false, Compare, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDominanceBNLColumnar(b *testing.B) {
	for _, d := range []int{2, 4, 6} {
		b.Run(fmt.Sprintf("n=10000/d=%d", d), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			dirs := make([]Dir, d)
			pts := genPoints(rng, 10000, d, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch, ok := DecodeBatch(pts, dirs, false, nil)
				if !ok {
					b.Fatal("decode failed")
				}
				batch.Points(batch.BNL(false))
			}
		})
	}
}

// kernelSink keeps the benchmarked kernels' results alive.
var kernelSink []int

// datagenPoints returns the first dims dimensions of the datagen table
// (n rows, complete) as minimized points.
func datagenPoints(dist datagen.Distribution, n, dims int, seed int64) []Point {
	var pts []Point
	_ = datagen.SyntheticStream(dist, n, dims, datagen.Config{Seed: seed, Complete: true}, func(r types.Row) error {
		pts = append(pts, Point{Dims: r[1 : 1+dims], Row: r})
		return nil
	})
	return pts
}

// BenchmarkDominanceGlobalAnti is the kernel_anti query's global step:
// 4 000 anti-correlated rows (d=4, seed 1) reduced by 8 local morsels, the
// merged survivors through BNLParallel at the engine's morsel target for 4
// executors. The hard shape for the window: most arrivals are skyline
// points, so a plain pass tests each against nearly the whole window.
// "runs" marks each local skyline as a run, as the engine's local
// skylines do, so the chunks are the runs and phase 1 is skipped;
// "unmarked" keeps phase 1's per-chunk passes measured.
func BenchmarkDominanceGlobalAnti(b *testing.B) {
	pts := datagenPoints(datagen.AntiCorrelated, 4000, 4, 1)
	dirs := make([]Dir, 4)
	for _, marked := range []bool{true, false} {
		name := "runs"
		if !marked {
			name = "unmarked"
		}
		b.Run(name, func(b *testing.B) {
			var locals []*Batch
			for m := 0; m < 8; m++ {
				lb, ok := DecodeBatch(pts[m*500:(m+1)*500], dirs, false, nil)
				if !ok {
					b.Fatal("decode failed")
				}
				local := lb.Select(lb.BNL(false))
				if marked {
					local.MarkRun(false)
				}
				locals = append(locals, local)
			}
			global, ok := MergeBatches(locals)
			if !ok {
				b.Fatal("merge failed")
			}
			chunk := cost.MorselTarget(global.Len(), 4)
			var stats Stats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx, err := global.BNLParallel(false, chunk, goRunner)
				if err != nil {
					b.Fatal(err)
				}
				kernelSink = idx
				global.Flush(&stats)
			}
			b.ReportMetric(float64(stats.DominanceTests())/float64(b.N), "tests/op")
		})
	}
}

// BenchmarkDominanceLocalIndependent guards the scan_segments shape: one
// 25 000-row independent batch (d=4) through Batch.BNL, where the dominance
// screen drops most arrivals and the cell index serves the hard rest.
func BenchmarkDominanceLocalIndependent(b *testing.B) {
	pts := datagenPoints(datagen.Independent, 25000, 4, 1)
	batch, ok := DecodeBatch(pts, make([]Dir, 4), false, nil)
	if !ok {
		b.Fatal("decode failed")
	}
	var stats Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernelSink = batch.BNL(false)
		batch.Flush(&stats)
	}
	b.ReportMetric(float64(stats.DominanceTests())/float64(b.N), "tests/op")
}

// BenchmarkDominanceLocalSplit is scan_segments' local skylines at the
// morsel counts a stage can be cut into: 100 000 independent d=4 rows with
// d1 in [0, 0.5) (the rows its filter keeps), reduced by Batch.BNL over 83,
// 20, 8 and 4 equal chunks. Every cut adds its chunk's local skyline to
// what the global pass must merge, and a chunk's screen draws its strong
// points from fewer rows, so tests/op and survivors/op fall as the cuts
// grow.
func BenchmarkDominanceLocalSplit(b *testing.B) {
	const rows = 100000
	var pts []Point
	for _, p := range datagenPoints(datagen.Independent, 3*rows, 4, 1) {
		if p.Dims[0].AsFloat() < 0.5 && len(pts) < rows {
			pts = append(pts, p)
		}
	}
	if len(pts) < rows {
		b.Fatalf("%d rows with d1 < 0.5, want %d", len(pts), rows)
	}
	batch, ok := DecodeBatch(pts, make([]Dir, 4), false, nil)
	if !ok {
		b.Fatal("decode failed")
	}
	for _, chunks := range []int{83, 20, 8, 4} {
		b.Run(fmt.Sprintf("chunks=%d", chunks), func(b *testing.B) {
			parts := make([]*Batch, chunks)
			for c := range parts {
				parts[c] = batch.Slice(c*rows/chunks, (c+1)*rows/chunks)
			}
			var stats Stats
			survivors := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, part := range parts {
					kernelSink = part.BNL(false)
					survivors += len(kernelSink)
					part.Flush(&stats)
				}
			}
			b.ReportMetric(float64(stats.DominanceTests())/float64(b.N), "tests/op")
			b.ReportMetric(float64(survivors)/float64(b.N), "survivors/op")
		})
	}
}

// dominancePairs is BenchmarkDominanceTest's input: 4 096 datagen points
// of d dimensions (seed 1) and a fixed stream of 65 536 pairs among them.
func dominancePairs(b *testing.B, dist datagen.Distribution, d int) (*Batch, [][2]int32) {
	batch, ok := DecodeBatch(datagenPoints(dist, 4096, d, 1), make([]Dir, d), false, nil)
	if !ok {
		b.Fatal("decode failed")
	}
	rng := rand.New(rand.NewSource(2))
	pairs := make([][2]int32, 1<<16)
	for i := range pairs {
		pairs[i] = [2]int32{int32(rng.Intn(batch.n)), int32(rng.Intn(batch.n))}
	}
	return batch, pairs
}

// BenchmarkDominanceTest is the cost of one dense dominance test, decided
// and counted as the window passes decide and count it: ns per test over a
// fixed pair stream, anti-correlated and independent, at d = 2, 3, 4, 6.
// lanes/test is the mean Comparisons count.
func BenchmarkDominanceTest(b *testing.B) {
	for _, dist := range []datagen.Distribution{datagen.AntiCorrelated, datagen.Independent} {
		for _, d := range []int{2, 3, 4, 6} {
			b.Run(fmt.Sprintf("%s/d=%d", dist, d), func(b *testing.B) {
				batch, pairs := dominancePairs(b, dist, d)
				num, four := batch.num, d == 4
				var dominated, evicted, comps int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pr := pairs[i&(len(pairs)-1)]
					w, t := int(pr[0]), int(pr[1])
					wv, tv := num[w*d:w*d+d], num[t*d:t*d+d]
					var lt, gt uint64
					if four {
						lt, gt = lessMask4(wv, tv), lessMask4(tv, wv)
					} else {
						lt, gt = laneMasks(wv, tv)
					}
					comps += lanesCompared(lt, gt, d)
					if gt == 0 && lt != 0 {
						dominated++
					} else if lt == 0 && gt != 0 {
						evicted++
					}
				}
				kernelSink = []int{int(dominated), int(evicted)}
				b.ReportMetric(float64(comps)/float64(b.N), "lanes/test")
			})
		}
	}
}

// BenchmarkDominanceCompareDecoded is the single-test twin of
// BenchmarkDominanceCheck: one decoded dominance classification.
func BenchmarkDominanceCompareDecoded(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	dirs := []Dir{Min, Max, Min, Max, Min, Max}
	pts := genPoints(rng, 2, 6, 0)
	batch, ok := DecodeBatch(pts, dirs, false, nil)
	if !ok {
		b.Fatal("decode failed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.CompareDecoded(0, 1)
	}
}

func BenchmarkDominanceCheck(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	dirs := []Dir{Min, Max, Min, Max, Min, Max}
	a := genPoints(rng, 1, 6, 0)[0]
	c := genPoints(rng, 1, 6, 0)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compare(a.Dims, c.Dims, dirs, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCorrelationImpact shows how the data distribution drives the
// skyline size and therefore BNL cost — the §2 observation behind the
// paper's algorithm discussion.
func BenchmarkCorrelationImpact(b *testing.B) {
	for _, corr := range []struct {
		name string
		c    int
	}{{"correlated", 1}, {"independent", 0}, {"anti-correlated", -1}} {
		b.Run(corr.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			dirs := []Dir{Min, Min, Min}
			pts := genPoints(rng, 5000, 3, corr.c)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := BNL(pts, dirs, false, Compare, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
