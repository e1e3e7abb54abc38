// Benchmarks regenerating each table and figure of the paper at reduced
// scale — one Benchmark per artifact, named as in the experiment registry
// (internal/bench/experiments.go). Each benchmark iterates the full pipeline (generate → parse →
// analyze → optimize → plan → execute) for representative corners of the
// figure's parameter sweep; the complete sweeps with paper-formatted
// output are produced by `go run ./cmd/skybench -experiment <id>`.
package skysql_test

import (
	"fmt"
	"testing"

	"skysql/internal/bench"
	"skysql/internal/cluster"
	"skysql/internal/core"
	"skysql/internal/cost"
	"skysql/internal/datagen"
	"skysql/internal/expr"
	"skysql/internal/physical"
	"skysql/internal/skyline"
	"skysql/internal/types"
)

// benchConfig returns the scaled-down harness configuration used by all
// benchmarks: small enough that the quadratic reference algorithm stays
// sub-second per run.
func benchConfig() bench.Config {
	cfg := bench.DefaultConfig()
	cfg.Scale = 1.0
	return cfg
}

const (
	benchAirbnbRows      = 800
	benchStoreSalesRows  = 1000
	benchMusicBrainzRows = 600
)

func runSpec(b *testing.B, cfg bench.Config, spec bench.Spec) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		m := cfg.Run(spec)
		if m.Err != nil {
			b.Fatal(m.Err)
		}
		if m.TimedOut {
			b.Fatal("benchmark cell timed out")
		}
	}
}

// algSweep runs one sub-benchmark per applicable algorithm.
func algSweep(b *testing.B, cfg bench.Config, complete bool, label string, spec func(core.Algorithm) bench.Spec) {
	b.Helper()
	for _, alg := range bench.AlgorithmsFor(complete) {
		alg := alg
		b.Run(label+"/"+alg.Name, func(b *testing.B) { runSpec(b, cfg, spec(alg)) })
	}
}

// ---- Figures 3–7: the main evaluation (§6.4, Tables 3–12) ----

func BenchmarkFig3DimsAirbnb(b *testing.B) {
	cfg := benchConfig()
	for _, dims := range []int{2, 6} {
		dims := dims
		algSweep(b, cfg, true, fmt.Sprintf("complete/dims=%d", dims), func(a core.Algorithm) bench.Spec {
			return bench.Spec{Dataset: "airbnb", Complete: true, Dimensions: dims,
				Tuples: benchAirbnbRows, Executors: 5, Algorithm: a}
		})
		algSweep(b, cfg, false, fmt.Sprintf("incomplete/dims=%d", dims), func(a core.Algorithm) bench.Spec {
			return bench.Spec{Dataset: "airbnb", Complete: false, Dimensions: dims,
				Tuples: benchAirbnbRows, Executors: 5, Algorithm: a}
		})
	}
}

func BenchmarkFig4DimsStoreSales(b *testing.B) {
	cfg := benchConfig()
	for _, dims := range []int{1, 2, 6} { // 1→2 shows the skyline shrink
		dims := dims
		algSweep(b, cfg, true, fmt.Sprintf("complete/dims=%d", dims), func(a core.Algorithm) bench.Spec {
			return bench.Spec{Dataset: "store_sales", Complete: true, Dimensions: dims,
				Tuples: benchStoreSalesRows, Executors: 10, Algorithm: a}
		})
	}
	algSweep(b, cfg, false, "incomplete/dims=6", func(a core.Algorithm) bench.Spec {
		return bench.Spec{Dataset: "store_sales", Complete: false, Dimensions: 6,
			Tuples: benchStoreSalesRows, Executors: 10, Algorithm: a}
	})
}

func BenchmarkFig5Tuples(b *testing.B) {
	cfg := benchConfig()
	for _, n := range []int{500, 2000} {
		n := n
		algSweep(b, cfg, true, fmt.Sprintf("complete/n=%d", n), func(a core.Algorithm) bench.Spec {
			return bench.Spec{Dataset: "store_sales", Complete: true, Dimensions: 6,
				Tuples: n, Executors: 3, Algorithm: a}
		})
		algSweep(b, cfg, false, fmt.Sprintf("incomplete/n=%d", n), func(a core.Algorithm) bench.Spec {
			return bench.Spec{Dataset: "store_sales", Complete: false, Dimensions: 6,
				Tuples: n, Executors: 3, Algorithm: a}
		})
	}
}

func BenchmarkFig6ExecutorsAirbnb(b *testing.B) {
	cfg := benchConfig()
	for _, execs := range []int{1, 5, 10} {
		execs := execs
		algSweep(b, cfg, true, fmt.Sprintf("complete/executors=%d", execs), func(a core.Algorithm) bench.Spec {
			return bench.Spec{Dataset: "airbnb", Complete: true, Dimensions: 6,
				Tuples: benchAirbnbRows, Executors: execs, Algorithm: a}
		})
	}
}

func BenchmarkFig7ExecutorsStoreSales(b *testing.B) {
	cfg := benchConfig()
	for _, execs := range []int{1, 5, 10} {
		execs := execs
		algSweep(b, cfg, true, fmt.Sprintf("complete/executors=%d", execs), func(a core.Algorithm) bench.Spec {
			return bench.Spec{Dataset: "store_sales", Complete: true, Dimensions: 6,
				Tuples: benchStoreSalesRows, Executors: execs, Algorithm: a}
		})
		algSweep(b, cfg, false, fmt.Sprintf("incomplete/executors=%d", execs), func(a core.Algorithm) bench.Spec {
			return bench.Spec{Dataset: "store_sales", Complete: false, Dimensions: 6,
				Tuples: benchStoreSalesRows, Executors: execs, Algorithm: a}
		})
	}
}

// ---- Appendix C: memory figures (8–10) and extended sweeps (11–15) ----

func BenchmarkFig8MemoryAirbnb(b *testing.B) {
	cfg := benchConfig()
	for _, execs := range []int{1, 10} {
		execs := execs
		algSweep(b, cfg, true, fmt.Sprintf("executors=%d", execs), func(a core.Algorithm) bench.Spec {
			return bench.Spec{Dataset: "airbnb", Complete: true, Dimensions: 6,
				Tuples: benchAirbnbRows, Executors: execs, Algorithm: a}
		})
	}
}

func BenchmarkFig9MemoryStoreSales(b *testing.B) {
	cfg := benchConfig()
	for _, execs := range []int{1, 10} {
		execs := execs
		algSweep(b, cfg, true, fmt.Sprintf("executors=%d", execs), func(a core.Algorithm) bench.Spec {
			return bench.Spec{Dataset: "store_sales", Complete: true, Dimensions: 6,
				Tuples: benchStoreSalesRows, Executors: execs, Algorithm: a}
		})
	}
}

func BenchmarkFig10MemoryTuples(b *testing.B) {
	cfg := benchConfig()
	for _, n := range []int{500, 2000} {
		n := n
		algSweep(b, cfg, true, fmt.Sprintf("n=%d", n), func(a core.Algorithm) bench.Spec {
			return bench.Spec{Dataset: "store_sales", Complete: true, Dimensions: 6,
				Tuples: n, Executors: 5, Algorithm: a}
		})
	}
}

func BenchmarkFig11DimsByExecutorsAirbnb(b *testing.B) {
	cfg := benchConfig()
	for _, execs := range []int{2, 10} {
		for _, dims := range []int{3, 6} {
			execs, dims := execs, dims
			algSweep(b, cfg, true, fmt.Sprintf("executors=%d/dims=%d", execs, dims), func(a core.Algorithm) bench.Spec {
				return bench.Spec{Dataset: "airbnb", Complete: true, Dimensions: dims,
					Tuples: benchAirbnbRows, Executors: execs, Algorithm: a}
			})
		}
	}
}

func BenchmarkFig12DimsByExecutorsStoreSales(b *testing.B) {
	cfg := benchConfig()
	for _, execs := range []int{2, 10} {
		for _, dims := range []int{3, 6} {
			execs, dims := execs, dims
			algSweep(b, cfg, true, fmt.Sprintf("executors=%d/dims=%d", execs, dims), func(a core.Algorithm) bench.Spec {
				return bench.Spec{Dataset: "store_sales", Complete: true, Dimensions: dims,
					Tuples: benchStoreSalesRows, Executors: execs, Algorithm: a}
			})
		}
	}
}

func BenchmarkFig13TuplesByExecutors(b *testing.B) {
	cfg := benchConfig()
	for _, execs := range []int{2, 10} {
		for _, n := range []int{500, 2000} {
			execs, n := execs, n
			algSweep(b, cfg, true, fmt.Sprintf("executors=%d/n=%d", execs, n), func(a core.Algorithm) bench.Spec {
				return bench.Spec{Dataset: "store_sales", Complete: true, Dimensions: 6,
					Tuples: n, Executors: execs, Algorithm: a}
			})
		}
	}
}

func BenchmarkFig14ExecutorsByDimsAirbnb(b *testing.B) {
	cfg := benchConfig()
	for _, dims := range []int{3, 6} {
		for _, execs := range []int{1, 10} {
			dims, execs := dims, execs
			algSweep(b, cfg, true, fmt.Sprintf("dims=%d/executors=%d", dims, execs), func(a core.Algorithm) bench.Spec {
				return bench.Spec{Dataset: "airbnb", Complete: true, Dimensions: dims,
					Tuples: benchAirbnbRows, Executors: execs, Algorithm: a}
			})
		}
	}
}

func BenchmarkFig15ExecutorsByDimsStoreSales(b *testing.B) {
	cfg := benchConfig()
	for _, dims := range []int{3, 6} {
		for _, execs := range []int{1, 10} {
			dims, execs := dims, execs
			algSweep(b, cfg, true, fmt.Sprintf("dims=%d/executors=%d", dims, execs), func(a core.Algorithm) bench.Spec {
				return bench.Spec{Dataset: "store_sales", Complete: true, Dimensions: dims,
					Tuples: benchStoreSalesRows, Executors: execs, Algorithm: a}
			})
		}
	}
}

// ---- Appendix E: complex MusicBrainz queries (figures 16–19) ----

func BenchmarkFig16ComplexDims(b *testing.B) {
	cfg := benchConfig()
	for _, dims := range []int{2, 6} {
		dims := dims
		algSweep(b, cfg, true, fmt.Sprintf("complete/dims=%d", dims), func(a core.Algorithm) bench.Spec {
			return bench.Spec{Dataset: "musicbrainz", Complete: true, Dimensions: dims,
				Tuples: benchMusicBrainzRows, Executors: 3, Algorithm: a}
		})
		algSweep(b, cfg, false, fmt.Sprintf("incomplete/dims=%d", dims), func(a core.Algorithm) bench.Spec {
			return bench.Spec{Dataset: "musicbrainz", Complete: false, Dimensions: dims,
				Tuples: benchMusicBrainzRows, Executors: 3, Algorithm: a}
		})
	}
}

func BenchmarkFig17ComplexMemory(b *testing.B) {
	cfg := benchConfig()
	algSweep(b, cfg, true, "dims=6", func(a core.Algorithm) bench.Spec {
		return bench.Spec{Dataset: "musicbrainz", Complete: true, Dimensions: 6,
			Tuples: benchMusicBrainzRows, Executors: 5, Algorithm: a}
	})
}

func BenchmarkFig18ComplexExecutors(b *testing.B) {
	cfg := benchConfig()
	for _, execs := range []int{1, 3, 10} {
		execs := execs
		algSweep(b, cfg, true, fmt.Sprintf("executors=%d", execs), func(a core.Algorithm) bench.Spec {
			return bench.Spec{Dataset: "musicbrainz", Complete: true, Dimensions: 6,
				Tuples: benchMusicBrainzRows, Executors: execs, Algorithm: a}
		})
	}
}

func BenchmarkFig19ComplexExecutorsMemory(b *testing.B) {
	cfg := benchConfig()
	for _, execs := range []int{1, 10} {
		execs := execs
		algSweep(b, cfg, false, fmt.Sprintf("executors=%d", execs), func(a core.Algorithm) bench.Spec {
			return bench.Spec{Dataset: "musicbrainz", Complete: false, Dimensions: 6,
				Tuples: benchMusicBrainzRows, Executors: execs, Algorithm: a}
		})
	}
}

// BenchmarkLocalSkylineRows is the in-memory twin of BenchmarkSegmentScan
// for the first stage of the benchmark's kernel_anti query: 4 000
// anti-correlated rows (d=4, seed 1) in the engine's morsels for 4
// executors, each decoded from its rows and reduced by the local skyline
// exactly as LocalSkylineExec does. The sub-benchmarks split the stage:
// "stage" is decode plus local BNL; "bnl" is the local BNL alone, over
// batches decoded beforehand; "boxed-decode" is the decode through a boxed
// dimension vector per row (evalPoints + DecodeBatch) that "stage" no
// longer pays. ns/row is per input row; run with -benchmem for allocs/op.
func BenchmarkLocalSkylineRows(b *testing.B) {
	const rows = 4000
	tab := datagen.Synthetic(datagen.AntiCorrelated, rows, 4, datagen.Config{Seed: 1, Complete: true})
	dims := make([]physical.BoundDim, 4)
	for d := range dims {
		dims[d] = physical.BoundDim{E: expr.NewBoundRef(1+d, fmt.Sprintf("d%d", d+1), types.KindFloat, false), Dir: skyline.Min}
	}
	target := cost.MorselTarget(rows, 4)
	var morsels [][]types.Row
	for lo := 0; lo < rows; lo += target {
		morsels = append(morsels, tab.Rows[lo:min(lo+target, rows)])
	}
	boxedDecode := func(part []types.Row) *skyline.Batch {
		pts := make([]skyline.Point, len(part))
		for i, r := range part {
			pts[i] = skyline.Point{Dims: append(make(types.Row, 0, 4), r[1:5]...), Row: r}
		}
		batch, ok := skyline.DecodeBatch(pts, make([]skyline.Dir, 4), false, nil)
		if !ok {
			b.Fatal("decode refused")
		}
		return batch
	}
	perRow := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
	}
	b.Run("stage", func(b *testing.B) {
		local := &physical.LocalSkylineExec{Dims: dims}
		fn := local.PartitionTransformColumnar(cluster.NewContext(4))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for m, part := range morsels {
				if _, _, err := fn(m, part, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
		perRow(b)
	})
	b.Run("bnl", func(b *testing.B) {
		batches := make([]*skyline.Batch, len(morsels))
		for m, part := range morsels {
			batches[m] = boxedDecode(part)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, batch := range batches {
				batch.BNL(false)
			}
		}
		perRow(b)
	})
	b.Run("boxed-decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, part := range morsels {
				boxedDecode(part)
			}
		}
		perRow(b)
	})
}
