package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"skysql/internal/catalog"
	"skysql/internal/core"
	"skysql/internal/datagen"
	"skysql/internal/physical"
	"skysql/internal/resultcache"
	"skysql/internal/types"
)

// runCache is the result-cache evaluation behind BENCH_PR9.json, in three
// sections:
//
//	cold/warm       the same skyline query run twice against one cache:
//	                the populating miss pays the full plan, the hit must
//	                come back at least 10× faster and bit-identical.
//	zipfian mix     a seeded zipfian stream of repeated query shapes —
//	                the session workload the cache exists for. Hit and
//	                miss counts are pure functions of (seed, shapes), so
//	                benchdiff gates on them.
//	incremental     appends arriving between queries: in-place
//	                incremental upgrades (cache told via TableChanged)
//	                versus version-driven invalidate-and-recompute (cache
//	                not told; every post-append run misses). Both sides
//	                must end bit-identical; the upgraded side must be
//	                faster.
//
// All sections run the distributed complete algorithm over anti-correlated
// synthetic data — the widest skylines, hence the most recompute work a
// hit saves.
func runCache(cfg Config, w io.Writer) error {
	const dims = 4
	const executors = 8
	alg := core.Algorithm{Name: "distributed complete", Strategy: physical.SkylineDistributedComplete}

	renderRows := func(rows []types.Row) string {
		var b strings.Builder
		for _, r := range rows {
			b.WriteString(r.String())
			b.WriteByte('\n')
		}
		return b.String()
	}
	spec := func(dataset string, tuples int, variant string) Spec {
		return Spec{Dataset: "synthetic_" + dataset, Complete: true,
			Dimensions: dims, Tuples: tuples, Executors: executors,
			Algorithm: alg, Variant: variant}
	}
	emit := func(m Measurement) {
		if cfg.Observer != nil {
			cfg.Observer(m)
		}
	}

	// ---- Section 1: cold miss vs warm hit ----
	n := cfg.scaled(20000)
	tab := datagen.Synthetic(datagen.AntiCorrelated, n, dims, datagen.Config{Seed: cfg.Seed, Complete: true})
	cat := catalog.New()
	cat.Register(tab)
	engine := core.NewEngine(cat)
	cache := resultcache.New(0)
	query := "SELECT * FROM t SKYLINE OF COMPLETE d1 MIN, d2 MIN, d3 MIN, d4 MIN"
	compiled, err := engine.CompileSQL(query, physical.Options{Strategy: alg.Strategy, ResultCache: cache})
	if err != nil {
		return fmt.Errorf("cache cold/warm: %w", err)
	}
	runOnce := func(variant string) (Measurement, *core.Result, error) {
		res, err := runModelled(engine, compiled, modelContext(executors))
		if err != nil {
			return Measurement{}, nil, err
		}
		m := Measurement{Spec: spec("anti-correlated", n, variant)}
		cfg.fill(&m, res)
		emit(m)
		return m, res, nil
	}
	cold, coldRes, err := runOnce("cold-miss")
	if err != nil {
		return fmt.Errorf("cache cold run: %w", err)
	}
	warm, warmRes, err := runOnce("warm-hit")
	if err != nil {
		return fmt.Errorf("cache warm run: %w", err)
	}
	if renderRows(warmRes.Rows) != renderRows(coldRes.Rows) {
		fmt.Fprintln(w, "WARNING: warm hit is not bit-identical to the populating run")
	}
	if warm.CacheHits != 1 || cold.CacheMisses != 1 {
		fmt.Fprintf(w, "WARNING: counters off: cold hits/misses=%d/%d warm=%d/%d\n",
			cold.CacheHits, cold.CacheMisses, warm.CacheHits, warm.CacheMisses)
	}
	speedup := "inf"
	if warm.Seconds() > 0 {
		s := cold.Seconds() / warm.Seconds()
		speedup = fmt.Sprintf("%.0fx", s)
		if s < 10 {
			fmt.Fprintf(w, "WARNING: warm hit only %.1fx faster than cold recompute; target is >=10x\n", s)
		}
	}
	fmt.Fprintf(w, "cache | cold vs warm | dataset=synthetic_anti-correlated tuples=%d dimensions=%d executors=%d algorithm=%s\n",
		n, dims, executors, alg.Name)
	fmt.Fprintf(w, "%-12s%14s%14s%10s\n", "", "cold [s]", "warm [s]", "speedup")
	fmt.Fprintf(w, "%-12s%14.3f%14.3f%10s\n\n", "full skyline", cold.Seconds(), warm.Seconds(), speedup)

	// ---- Section 2: zipfian repeat mix ----
	// A session fires the same few query shapes over and over; zipfian rank
	// selection over the shape list models that. The draw sequence is a pure
	// function of the seed, so hit/miss totals are deterministic and the
	// uncached side can replay the identical sequence.
	nMix := cfg.scaled(5000)
	tabMix := datagen.Synthetic(datagen.AntiCorrelated, nMix, dims, datagen.Config{Seed: cfg.Seed, Complete: true})
	catMix := catalog.New()
	catMix.Register(tabMix)
	engMix := core.NewEngine(catMix)
	cacheMix := resultcache.New(0)
	shapes := mixShapes
	cachedPlans := make([]*core.Compiled, len(shapes))
	plainPlans := make([]*core.Compiled, len(shapes))
	for i, q := range shapes {
		if cachedPlans[i], err = engMix.CompileSQL(q, physical.Options{Strategy: alg.Strategy, ResultCache: cacheMix}); err != nil {
			return fmt.Errorf("cache mix shape %d: %w", i, err)
		}
		if plainPlans[i], err = engMix.CompileSQL(q, physical.Options{Strategy: alg.Strategy}); err != nil {
			return fmt.Errorf("cache mix shape %d: %w", i, err)
		}
	}
	draws := cfg.scaled(120)
	z := datagen.NewZipf(cfg.Seed, 1.2, len(shapes))
	seq := make([]int, draws)
	for i := range seq {
		seq[i] = z.Next()
	}
	runSeq := func(plans []*core.Compiled) (time.Duration, int, error) {
		var total time.Duration
		rows := 0
		for _, si := range seq {
			res, err := runModelled(engMix, plans[si], modelContext(executors))
			if err != nil {
				return 0, 0, err
			}
			total += res.Duration
			rows += len(res.Rows)
		}
		return total, rows, nil
	}
	cachedDur, cachedRows, err := runSeq(cachedPlans)
	if err != nil {
		return fmt.Errorf("cache mix cached: %w", err)
	}
	stats := cacheMix.Stats()
	plainDur, plainRows, err := runSeq(plainPlans)
	if err != nil {
		return fmt.Errorf("cache mix uncached: %w", err)
	}
	if cachedRows != plainRows {
		fmt.Fprintf(w, "WARNING: cached mix returned %d total rows, uncached %d\n", cachedRows, plainRows)
	}
	mixVariant := fmt.Sprintf("zipfian-mix,s=1.2,draws=%d,shapes=%d", draws, len(shapes))
	emit(Measurement{Spec: spec("anti-correlated", nMix, mixVariant), Duration: cachedDur,
		CacheHits: stats.Hits, CacheMisses: stats.Misses, CacheEvictions: stats.Evictions,
		ResultRows: cachedRows})
	emit(Measurement{Spec: spec("anti-correlated", nMix, mixVariant+",nocache"), Duration: plainDur,
		ResultRows: plainRows})
	fmt.Fprintf(w, "cache | zipfian mix | tuples=%d draws=%d shapes=%d s=1.2\n", nMix, draws, len(shapes))
	fmt.Fprintf(w, "%-12s%14s%14s%8s%8s%12s\n", "", "cached [s]", "uncached [s]", "hits", "misses", "total rows")
	fmt.Fprintf(w, "%-12s%14.3f%14.3f%8d%8d%12d\n\n", "mix",
		cachedDur.Seconds(), plainDur.Seconds(), stats.Hits, stats.Misses, cachedRows)

	// ---- Section 3: incremental upgrades vs invalidate-and-recompute ----
	// Appends land between queries. The upgraded side routes them through
	// Cache.TableChanged, so every post-append run hits an entry maintained
	// in place (the upgrade CPU is billed into its total); the invalidated
	// side appends behind the cache's back, so the version bump forces every
	// post-append run to miss and recompute. This section runs correlated
	// data — the regime incremental maintenance targets: the skyline is tiny
	// relative to the base table, so an upgrade touches |skyline| + |batch|
	// rows while a recompute rescans everything.
	nInc := cfg.scaled(8000)
	nApp := cfg.scaled(2000)
	const batches = 8
	baseTab := datagen.Synthetic(datagen.Correlated, nInc, dims, datagen.Config{Seed: cfg.Seed, Complete: true})
	extraTab := datagen.Synthetic(datagen.Correlated, nApp, dims, datagen.Config{Seed: cfg.Seed + 1, Complete: true})
	extra := extraTab.Rows
	for i, r := range extra {
		// Re-number ids past the base table so appends stay distinct rows.
		r[0] = types.Int(int64(nInc + i + 1))
	}
	incQuery := "SELECT * FROM t WHERE d1 < 0.7 SKYLINE OF COMPLETE d1 MIN, d2 MIN, d3 MIN, d4 MIN"
	side := func(variant string, upgrade bool) (Measurement, string, error) {
		rows := append([]types.Row(nil), baseTab.Rows...)
		t, err := catalog.NewTable("t", baseTab.Schema, rows)
		if err != nil {
			return Measurement{}, "", err
		}
		c := catalog.New()
		c.Register(t)
		eng := core.NewEngine(c)
		sideCache := resultcache.New(0)
		plan, err := eng.CompileSQL(incQuery, physical.Options{Strategy: alg.Strategy, ResultCache: sideCache})
		if err != nil {
			return Measurement{}, "", err
		}
		var total time.Duration
		var last *core.Result
		m := Measurement{Spec: spec("correlated", nInc, variant)}
		for b := 0; b <= batches; b++ {
			if b > 0 {
				lo, hi := (b-1)*len(extra)/batches, b*len(extra)/batches
				if err := t.Append(extra[lo:hi]...); err != nil {
					return Measurement{}, "", err
				}
				if upgrade {
					start := time.Now()
					sideCache.TableChanged(t, extra[lo:hi])
					total += time.Since(start)
				}
			}
			res, err := runModelled(eng, plan, modelContext(executors))
			if err != nil {
				return Measurement{}, "", err
			}
			total += res.Duration
			last = res
		}
		st := sideCache.Stats()
		m.Duration = total
		m.CacheHits = st.Hits
		m.CacheMisses = st.Misses
		m.CacheEvictions = st.Evictions
		m.IncrementalUpgrades = st.Upgrades
		m.ResultRows = len(last.Rows)
		emit(m)
		return m, renderRows(last.Rows), nil
	}
	inc, incRows, err := side(fmt.Sprintf("incremental,batches=%d,append=%d", batches, nApp), true)
	if err != nil {
		return fmt.Errorf("cache incremental: %w", err)
	}
	inv, invRows, err := side(fmt.Sprintf("invalidate,batches=%d,append=%d", batches, nApp), false)
	if err != nil {
		return fmt.Errorf("cache invalidate: %w", err)
	}
	if incRows != invRows {
		fmt.Fprintln(w, "WARNING: incremental final skyline differs from recomputed final skyline")
	}
	if inc.IncrementalUpgrades != batches {
		fmt.Fprintf(w, "WARNING: expected %d incremental upgrades, observed %d\n", batches, inc.IncrementalUpgrades)
	}
	if inc.Duration >= inv.Duration {
		fmt.Fprintf(w, "WARNING: incremental maintenance (%s) not faster than invalidate-and-recompute (%s)\n",
			inc.Duration, inv.Duration)
	}
	fmt.Fprintf(w, "cache | incremental vs invalidate | tuples=%d appends=%d in %d batches, query after each batch\n",
		nInc, nApp, batches)
	fmt.Fprintf(w, "%-14s%12s%8s%8s%10s%12s\n", "", "total [s]", "hits", "misses", "upgrades", "final rows")
	fmt.Fprintf(w, "%-14s%12.3f%8d%8d%10d%12d\n", "incremental",
		inc.Seconds(), inc.CacheHits, inc.CacheMisses, inc.IncrementalUpgrades, inc.ResultRows)
	fmt.Fprintf(w, "%-14s%12.3f%8d%8d%10d%12d\n\n", "invalidate",
		inv.Seconds(), inv.CacheHits, inv.CacheMisses, inv.IncrementalUpgrades, inv.ResultRows)
	return nil
}
