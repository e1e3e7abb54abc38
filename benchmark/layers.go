package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"skysql"
	"skysql/internal/analyzer"
	"skysql/internal/catalog"
	"skysql/internal/cost"
	"skysql/internal/expr"
	"skysql/internal/optimizer"
	"skysql/internal/physical"
	"skysql/internal/plan"
	"skysql/internal/resultcache"
	"skysql/internal/skyline"
	"skysql/internal/sql"
	"skysql/internal/storage"
	"skysql/internal/types"
)

// The traced replay is a second, separate pass with a fixed op count —
// every distinct op of the workload replayReps times — so every count it
// prints repeats exactly. Each op goes over HTTP (client span, middleware
// span) and is then replayed directly on the same session (compile,
// execute and stage spans, laid inside the handler span); the compile
// path is walked step by step and the kernels are called directly over
// the workload's own data.
const (
	replayReps = 20
	kernelReps = 5 // direct Batch.BNL runs; one is up to a few hundred ms
)

// counters sums the engine's own counters over the direct replays.
type counters struct {
	stages, domTests, batches, morsels, shuffled, steals int64
	vectorized, pruned, scanned                          int64
	peakBytes                                            int64
	parallelism                                          []float64
}

func (c *counters) add(m *skysql.Metrics, segments int64) {
	if m == nil {
		return
	}
	c.stages += m.StagesExecuted()
	c.domTests += m.Sky.DominanceTests()
	c.batches += m.BatchesDecoded()
	c.morsels += m.MorselsExecuted()
	c.shuffled += m.RowsShuffled()
	c.steals += m.Steals()
	c.vectorized += m.VectorizedBatches()
	c.pruned += m.SegmentsPruned()
	if m.StagesExecuted() > 0 {
		c.scanned += segments - m.SegmentsPruned()
	}
	if p := m.PeakBytes(); p > c.peakBytes {
		c.peakBytes = p
	}
	if p := m.AchievedParallelism(); p > 0 {
		c.parallelism = append(c.parallelism, p)
	}
}

// opFacts is what the replay saw of one op label over HTTP.
type opFacts struct {
	bytes, rows []float64
}

// replay runs the traced fixed-count pass and the direct layer calls, and
// fills r with every per-layer metric.
func replay(r *runReport, ds *dataset, v *verification, tr *tracer) error {
	fx, _, err := setUp(ds, tr.middleware)
	if err != nil {
		return fmt.Errorf("replay set-up: %w", err)
	}
	defer fx.close()
	c := newConn()
	defer c.close()

	// A catalog of the benchmark's own over the workload's table, for the
	// calls that need resolved plans outside the session.
	var store *storage.Store
	var segments int64
	cat := catalog.New()
	if ds.spec.segments {
		if store, err = storage.OpenDir(ds.segDir); err != nil {
			return err
		}
		segments = int64(len(store.Segments()))
		cat.Register(catalog.NewSegmentTable(tableName, store))
	} else {
		cat.Register(fx.table)
	}
	// The segments each query's filter cannot rule out by zone map — the
	// engine's own test, cost.ProvablyEmpty — are the ones its scan decodes,
	// one after the other, before the first stage's clock starts.
	survivors := make([][]*storage.Segment, len(ds.queries))
	if store != nil {
		for i, q := range ds.queries {
			resolved, err := resolve(cat, q)
			if err != nil {
				return err
			}
			cond := findFilter(resolved)
			for _, seg := range store.Segments() {
				if cond == nil || !cost.ProvablyEmpty(cond, seg.Sketch()) {
					survivors[i] = append(survivors[i], seg)
				}
			}
		}
	}

	// Twins for the append op: the same batches go, directly, into a
	// cache-less session and into a cached one warmed with the same
	// shapes; the difference is what the cache's upgrade costs.
	var plainTwin, cachedTwin *skysql.Session
	if ds.spec.drive == driveAppend {
		plainTwin = skysql.NewSession(skysql.WithExecutors(executors))
		defer plainTwin.Close()
		cachedTwin = skysql.NewSession(ds.sessionOptions()...)
		defer cachedTwin.Close()
		for _, s := range []*skysql.Session{plainTwin, cachedTwin} {
			if _, err := ds.register(s); err != nil {
				return err
			}
		}
		for _, q := range ds.queries {
			if _, err := cachedTwin.Query(q); err != nil {
				return fmt.Errorf("warming the cached twin: %w", err)
			}
		}
	}

	var cnt counters
	facts := map[string]*opFacts{}
	invalidations := int64(0)
	send := func(o *op, want int) int64 {
		res, id, _, _ := c.send(fx.base, o, tr, phaseReplay)
		r.Attempted++
		if !res.ok() || (o.kind == opQuery && want >= 0 && res.rowCount != want) {
			r.Failed++
			r.note("replay %s: %s, row_count %d (verified %d)", opLabel(o), res.describe(), res.rowCount, want)
		}
		f := facts[opLabel(o)]
		if f == nil {
			f = &opFacts{}
			facts[opLabel(o)] = f
		}
		f.bytes = append(f.bytes, float64(res.bytes))
		f.rows = append(f.rows, float64(res.rowCount))
		return id
	}
	query := func(o *op, want int) error {
		id := send(o, want)
		t0 := time.Now()
		df, err := fx.sess.SQL(ds.queries[o.shape])
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("direct compile of %q: %w", ds.queries[o.shape], err)
		}
		if _, err := df.CollectContext(context.Background()); err != nil {
			return fmt.Errorf("direct execute of %q: %w", ds.queries[o.shape], err)
		}
		t2 := time.Now()
		cnt.add(df.Metrics(), segments)
		exec := pairedSpan{name: spanExecute, dur: t2.Sub(t1)}
		if scan := survivors[o.shape]; len(scan) > 0 {
			t3 := time.Now()
			for _, seg := range scan {
				if _, err := seg.Decode(); err != nil {
					return err
				}
			}
			exec.children = append(exec.children, pairedSpan{name: spanStorageDecode, dur: time.Since(t3)})
		}
		if m := df.Metrics(); m != nil {
			st := m.StageTimes()
			for i, s := range st {
				name := spanStageMid
				switch {
				case i == len(st)-1 && len(st) > 1:
					name = spanStageLast
				case i == 0:
					name = spanStageFirst
				}
				exec.children = append(exec.children, pairedSpan{name: name, dur: s.Elapsed})
			}
		}
		tr.pair(id, pairedSpan{name: spanCompile, dur: t1.Sub(t0)}, exec)
		return nil
	}

	for rep := 0; rep < replayReps; rep++ {
		if ds.spec.drive == driveAppend {
			o := ds.appends[rep]
			entries := fx.sess.ResultCacheStats()
			id := send(o, -1)
			after := fx.sess.ResultCacheStats()
			// Entries an append removed that no eviction explains were
			// invalidated.
			if lost := int64(entries.Entries-after.Entries) - (after.Evictions - entries.Evictions); lost > 0 {
				invalidations += lost
			}
			t0 := time.Now()
			if err := plainTwin.AppendRows(tableName, o.rows); err != nil {
				return fmt.Errorf("cache-less twin append: %w", err)
			}
			t1 := time.Now()
			if err := cachedTwin.AppendRows(tableName, o.rows); err != nil {
				return fmt.Errorf("cached twin append: %w", err)
			}
			t2 := time.Now()
			upgrade := t2.Sub(t1) - t1.Sub(t0)
			if upgrade < 0 {
				upgrade = 0
			}
			tr.pair(id, pairedSpan{name: spanCatalogAppend, dur: t1.Sub(t0)},
				pairedSpan{name: spanCacheUpgrade, dur: upgrade})
		}
		for _, o := range ds.qops {
			want := v.want[o.shape]
			if ds.spec.drive == driveAppend {
				want = -1 // the table has grown past the verified round
			}
			if err := query(o, want); err != nil {
				return err
			}
		}
	}
	stats := fx.sess.ResultCacheStats()

	prof := profileOf(tr.spans(), phaseReplay)
	overQueries := func(f func(op string) float64) float64 {
		sum := 0.0
		for i, w := range ds.weights {
			sum += w * f(opLabel(ds.qops[i]))
		}
		return sum
	}
	total := func(name string) float64 {
		return overQueries(func(op string) float64 { return prof.medianOf(prof.total, op, name) })
	}
	self := func(name string) float64 {
		return overQueries(func(op string) float64 { return prof.medianOf(prof.self, op, name) })
	}
	m := r.Metrics
	roundtrip := total(spanRoundtrip)
	m.put("client.roundtrip_p50_ms", roundtrip, replayReps)
	m.put("client.transport_p50_ms", self(spanRoundtrip), replayReps)
	m.put("server.handler_p50_ms", total(spanHandler), replayReps)
	m.put("server.self_p50_ms", self(spanHandler), replayReps)
	m.put("server.encode_ns_per_row", overQueries(func(op string) float64 {
		rows := median(facts[op].rows)
		if rows < 1 {
			rows = 1
		}
		return prof.medianOf(prof.self, op, spanHandler) * 1e6 / rows
	}), replayReps)
	m.put("server.resp_bytes_per_op", overQueries(func(op string) float64 { return median(facts[op].bytes) }), replayReps)
	m.put("session.compile_us", total(spanCompile)*1000, replayReps)
	m.put("session.execute_p50_ms", total(spanExecute), replayReps)
	m.put("physical.stage_first_ms", total(spanStageFirst), replayReps)
	m.put("physical.stage_mid_ms", total(spanStageMid), replayReps)
	m.put("physical.stage_last_ms", total(spanStageLast), replayReps)
	m.put("physical.stages", float64(cnt.stages), 0)
	m.put("skyline.dominance_tests", float64(cnt.domTests), 0)
	m.put("skyline.batches_decoded", float64(cnt.batches), 0)
	m.put("cluster.morsels", float64(cnt.morsels), 0)
	m.put("cluster.rows_shuffled", float64(cnt.shuffled), 0)
	m.put("cluster.peak_bytes", float64(cnt.peakBytes), 0)
	m.put("cluster.parallelism", mean(cnt.parallelism), len(cnt.parallelism))
	m.put("cluster.steals", float64(cnt.steals), 0)
	m.put("expr.vectorized_batches", float64(cnt.vectorized), 0)
	m.put("storage.segments_pruned", float64(cnt.pruned), 0)
	m.put("storage.segments_scanned", float64(cnt.scanned), 0)
	m.put("storage.write_rows_per_s", ds.writeRowsPerS, 0)
	m.put("storage.bytes_per_row", ds.bytesPerRow, 0)
	m.put("resultcache.hits", float64(stats.Hits), 0)
	m.put("resultcache.misses", float64(stats.Misses), 0)
	m.put("resultcache.upgrades", float64(stats.Upgrades), 0)
	m.put("resultcache.invalidations", float64(invalidations), 0)
	m.put("resultcache.used_bytes", float64(stats.UsedBytes), 0)
	hit := 0.0
	if ds.spec.cache {
		hit = (total(spanCompile) + total(spanExecute)) * 1000
	}
	m.put("resultcache.hit_us", hit, replayReps)
	m.put("resultcache.upgrade_ms_per_append", prof.medianOf(prof.total, "append", spanCacheUpgrade), prof.traces["append"])
	m.put("catalog.append_ms", prof.medianOf(prof.total, "append", spanCatalogAppend), prof.traces["append"])

	if err := compileSteps(r, ds, cat); err != nil {
		return err
	}
	if err := directKernels(r, ds, store); err != nil {
		return err
	}

	// The printed breakdown must account for the round trip.
	sum := self(spanRoundtrip) + self(spanHandler) + total(spanCompile) + total(spanExecute)
	if roundtrip > 0 {
		if off := (sum - roundtrip) / roundtrip; off > 0.05 || off < -0.05 {
			r.note("breakdown sums to %.3f ms but client.roundtrip_p50_ms is %.3f ms (%+.1f%%)", sum, roundtrip, off*100)
		}
	}
	layerShares(r, ds, prof)
	return nil
}

// layerShares ranks the layers by their share of the mean op's round
// trip under the workload's own mix, and names the dominant one.
func layerShares(r *runReport, ds *dataset, prof *profile) {
	opShare := map[string]float64{}
	for i, w := range ds.weights {
		opShare[opLabel(ds.qops[i])] = w * (1 - ds.spec.appendShare)
	}
	if ds.spec.appendShare > 0 {
		opShare["append"] = ds.spec.appendShare
	}
	type layer struct {
		name string
		self bool
		span string
	}
	layers := []layer{
		{"client.transport", true, spanRoundtrip},
		{"server.self", true, spanHandler},
		{"session.compile", false, spanCompile},
		{"session.execute.self", true, spanExecute},
		{"storage.decode", false, spanStorageDecode},
		{"physical.stage_first", false, spanStageFirst},
		{"physical.stage_mid", false, spanStageMid},
		{"physical.stage_last", false, spanStageLast},
		{"catalog.append", false, spanCatalogAppend},
		{"resultcache.upgrade", false, spanCacheUpgrade},
	}
	meanOp := 0.0
	for op, share := range opShare {
		meanOp += share * prof.medianOf(prof.total, op, spanRoundtrip)
	}
	r.Shares = map[string]float64{}
	if meanOp <= 0 {
		return
	}
	for _, l := range layers {
		src := prof.total
		if l.self {
			src = prof.self
		}
		t := 0.0
		for op, share := range opShare {
			t += share * prof.medianOf(src, op, l.span)
		}
		r.Shares[l.name] = t / meanOp
	}
	names := make([]string, 0, len(r.Shares))
	for n := range r.Shares {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if r.Shares[names[i]] != r.Shares[names[j]] {
			return r.Shares[names[i]] > r.Shares[names[j]]
		}
		return names[i] < names[j]
	})
	r.Dominant = names[0]
}

// compileSteps walks the compile path one exported call at a time, over a
// catalog holding the workload's own table.
func compileSteps(r *runReport, ds *dataset, cat *catalog.Catalog) error {
	opts := physical.Options{}
	if ds.spec.cache {
		opts.ResultCache = resultcache.New(cacheBytes)
	}
	an, opt := analyzer.New(cat), optimizer.New()
	steps := []string{"sql.parse_us", "plan.build_us", "analyzer.analyze_us", "optimizer.optimize_us", "physical.plan_us"}
	weighted := make([]float64, len(steps))
	for qi, q := range ds.queries {
		samples := make([][]float64, len(steps))
		for rep := 0; rep < replayReps; rep++ {
			t := [6]time.Time{time.Now()}
			stmt, err := sql.Parse(q)
			t[1] = time.Now()
			if err != nil {
				return fmt.Errorf("sql.Parse(%q): %w", q, err)
			}
			unresolved, err := plan.Build(stmt)
			t[2] = time.Now()
			if err != nil {
				return fmt.Errorf("plan.Build(%q): %w", q, err)
			}
			resolved, err := an.Analyze(unresolved)
			t[3] = time.Now()
			if err != nil {
				return fmt.Errorf("analyzer.Analyze(%q): %w", q, err)
			}
			optimized := opt.Optimize(resolved)
			t[4] = time.Now()
			if _, err := physical.Plan(optimized, opts); err != nil {
				return fmt.Errorf("physical.Plan(%q): %w", q, err)
			}
			t[5] = time.Now()
			for i := range steps {
				samples[i] = append(samples[i], us(t[i+1].Sub(t[i])))
			}
		}
		for i := range steps {
			weighted[i] += ds.weights[qi] * median(samples[i])
		}
	}
	for i, name := range steps {
		r.Metrics.put(name, weighted[i], replayReps)
	}
	return nil
}

// columns serves a row sample to the vectorized evaluator as dense
// float64 columns, the shape a decoded batch hands it inside the engine.
type columns struct {
	n    int
	vals map[int][]float64
}

func (c *columns) NumRows() int { return c.n }

func (c *columns) Column(ord int) ([]float64, []bool, bool) {
	v, ok := c.vals[ord]
	return v, nil, ok
}

func columnsOf(rows []types.Row) *columns {
	c := &columns{n: len(rows), vals: map[int][]float64{}}
	if len(rows) == 0 {
		return c
	}
	for ord, v := range rows[0] {
		if k := v.Kind(); k != types.KindInt && k != types.KindFloat {
			continue
		}
		col := make([]float64, len(rows))
		for i, r := range rows {
			if r[ord].Kind() == types.KindInt {
				col[i] = float64(r[ord].AsInt())
			} else {
				col[i] = r[ord].AsFloat()
			}
		}
		c.vals[ord] = col
	}
	return c
}

// resolve parses, builds and analyzes q over cat.
func resolve(cat *catalog.Catalog, q string) (plan.Node, error) {
	stmt, err := sql.Parse(q)
	if err != nil {
		return nil, err
	}
	unresolved, err := plan.Build(stmt)
	if err != nil {
		return nil, err
	}
	return analyzer.New(cat).Analyze(unresolved)
}

// findFilter returns the first filter condition of a resolved plan.
func findFilter(n plan.Node) expr.Expr {
	if f, ok := n.(*plan.Filter); ok {
		return f.Cond
	}
	for _, c := range n.Children() {
		if e := findFilter(c); e != nil {
			return e
		}
	}
	return nil
}

// directKernels times the exported kernels over the workload's own data:
// segment open and page decode, batch decode, the serial BNL dominance
// kernel, and the vectorized filter on the workload's predicate.
func directKernels(r *runReport, ds *dataset, store *storage.Store) error {
	m := r.Metrics
	rows := ds.rows
	if len(rows) > ds.initial {
		rows = rows[:ds.initial]
	}
	openMS, decodeNS := 0.0, 0.0
	if store != nil {
		var opens, decodes []float64
		seg := store.Segments()[0]
		for rep := 0; rep < replayReps; rep++ {
			t0 := time.Now()
			if _, err := storage.OpenDir(ds.segDir); err != nil {
				return err
			}
			opens = append(opens, ms(time.Since(t0)))
			t0 = time.Now()
			decoded, err := seg.Decode()
			if err != nil {
				return err
			}
			decodes = append(decodes, float64(time.Since(t0))/float64(len(decoded)))
			rows = decoded
		}
		openMS, decodeNS = median(opens), median(decodes)
	}
	m.put("storage.open_ms", openMS, replayReps)
	m.put("storage.decode_ns_per_row", decodeNS, replayReps)

	dirs := make([]skyline.Dir, dims) // d1..d4 MIN
	points := make([]skyline.Point, len(rows))
	for i, row := range rows {
		points[i] = skyline.Point{Dims: row[1 : 1+dims], Row: row}
	}
	var decodes, kernels []float64
	var batch *skyline.Batch
	for rep := 0; rep < replayReps; rep++ {
		t0 := time.Now()
		b, ok := skyline.DecodeBatch(points, dirs, false, nil)
		if !ok {
			return fmt.Errorf("skyline.DecodeBatch refused the workload's rows")
		}
		decodes = append(decodes, float64(time.Since(t0))/float64(len(points)))
		batch = b
	}
	for rep := 0; rep < kernelReps; rep++ {
		var stats skyline.Stats
		t0 := time.Now()
		batch.BNL(false)
		took := time.Since(t0)
		batch.Flush(&stats)
		if tests := stats.DominanceTests(); tests > 0 {
			kernels = append(kernels, float64(took)/float64(tests))
		}
	}
	m.put("skyline.decode_ns_per_row", median(decodes), replayReps)
	m.put("skyline.kernel_ns_per_test", median(kernels), len(kernels))

	filterNS := 0.0
	cat := catalog.New()
	t, err := catalog.NewTable(tableName, ds.schema, rows)
	if err != nil {
		return err
	}
	cat.Register(t)
	src := columnsOf(rows)
	for _, q := range ds.queries {
		resolved, err := resolve(cat, q)
		if err != nil {
			return err
		}
		cond := findFilter(resolved)
		if cond == nil {
			continue
		}
		var evals []float64
		for rep := 0; rep < replayReps; rep++ {
			t0 := time.Now()
			if _, err := expr.NewVectorEvaluator(src).EvalPredicate(cond); err != nil {
				return fmt.Errorf("vectorized %s: %w", cond, err)
			}
			evals = append(evals, float64(time.Since(t0))/float64(len(rows)))
		}
		filterNS = median(evals)
		break
	}
	m.put("expr.filter_ns_per_row", filterNS, replayReps)
	return nil
}
