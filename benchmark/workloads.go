package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"skysql"
	"skysql/internal/catalog"
	"skysql/internal/datagen"
	"skysql/internal/server"
	"skysql/internal/storage"
	"skysql/internal/types"
)

// Fixed configuration of every workload, recorded in every report. The
// executor count is skysqld's default, so partition counts — and with
// them every counter — do not depend on the machine; the pool size is
// what a session picks on its own (min(NumCPU, executors)).
//
// gcPercent is the process's GOGC. The tables here leave a live heap of a
// few megabytes, so at the default 100 the collector would cycle ten times
// a second and slow every seventh request: the 90th percentile would sit
// on the edge between untouched and collected requests and swing with the
// share of them. At 400 a cycle touches a few requests in a hundred, which
// is what a server with a real heap sees; its cost stays in query_p99_ms,
// throughput_ops_s and the runtime.gc_* metrics.
const (
	executors  = 4
	dims       = 4
	cacheBytes = 64 << 20
	tableName  = "t"
	gcPercent  = 400
)

// Query shapes. The four-dimensional ones with their d1 filters are
// plans the result cache can maintain across appends; hotShapes is the
// repeated-shape mix internal/bench's serve experiment fires (answers of
// 0.5 KB to 144 KB at 5 000 rows).
var hotShapes = []string{
	"SELECT * FROM t SKYLINE OF COMPLETE d1 MIN, d2 MIN, d3 MIN, d4 MIN",
	"SELECT * FROM t WHERE d1 < 0.8 SKYLINE OF COMPLETE d1 MIN, d2 MIN, d3 MIN, d4 MIN",
	"SELECT * FROM t WHERE d1 < 0.6 SKYLINE OF COMPLETE d1 MIN, d2 MIN, d3 MIN, d4 MIN",
	"SELECT * FROM t WHERE d1 < 0.4 SKYLINE OF COMPLETE d1 MIN, d2 MIN, d3 MIN, d4 MIN",
	"SELECT * FROM t SKYLINE OF COMPLETE d1 MIN, d2 MIN",
	"SELECT * FROM t SKYLINE OF COMPLETE d2 MIN, d3 MIN, d4 MIN",
	"SELECT * FROM t WHERE d2 < 0.5 SKYLINE OF COMPLETE d1 MIN, d2 MIN",
	"SELECT * FROM t SKYLINE OF COMPLETE d3 MIN, d4 MIN",
}

// Workload sizes, measured on a 2-core box so that one run of
// BENCHMARK.json's run_seconds yields at least 100 samples of every
// timed op class (the p90 rule) and 1 000 open-loop samples on hot_serve
// (the p99 rule). They are constants, never calibrated at run time.
const (
	kernelRows = 4000   // ≈100 ms per query, ≈2 400-row / 120 KB answer
	scanRows   = 400000 // 7 default-size segments, ≈95 ms per query, 14 KB answer
	hotRows    = 5000
	hotRate    = 150.0 // open-loop requests per second
	hotZipfS   = 1.2
	hotConns   = 2
	appendRows = 1000 // initial table of each append_mix round
	batchRows  = 20   // rows per /append
	cycleReads = 9    // queries after each append
	roundSize  = 10   // cycles per round: the table grows by 200 rows
	prefixRows = 2000 // slice of each table checked against the Listing-4 rewrite
	setupReps  = 3    // set-ups per run of the non-round workloads; setup_s is their median
	warmups    = 3    // warm-up queries of a cache-less set-up
)

// spec is one workload: its data, its distinct ops and how they are
// driven.
type spec struct {
	Name string
	Why  string
	dist datagen.Distribution
	rows int
	// segments stores the table as on-disk segment files opened with
	// OpenSegments; otherwise it is an in-memory row table.
	segments bool
	cache    bool
	queries  func(rows int) []string
	// weights is each query's share of the timed mix (sums to 1 over the
	// queries; appends take appendShare of all ops on top).
	weights     func(n int) []float64
	appendShare float64
	drive       driveMode
}

type driveMode int

const (
	driveClosed driveMode = iota // one client, one query, until the deadline
	driveHot                     // open loop at hotRate, then closed-loop capacity
	driveAppend                  // rounds of (append, reads) cycles
)

func uniform(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	return w
}

// zipfWeights is the probability mass math/rand's Zipf(s, v=1) puts on
// ranks 0..n-1: P(k) ∝ (1+k)^-s.
func zipfWeights(n int) []float64 {
	w := make([]float64, n)
	sum := 0.0
	for k := range w {
		w[k] = math.Pow(1+float64(k), -hotZipfS)
		sum += w[k]
	}
	for k := range w {
		w[k] /= sum
	}
	return w
}

var specs = []spec{
	{
		Name: "kernel_anti",
		Why:  "anti-correlated d=4 in memory, cache off: the global-skyline dominance kernel does most of the work; storage and cache are bypassed",
		dist: datagen.AntiCorrelated, rows: kernelRows,
		queries: func(int) []string { return hotShapes[:1] },
		weights: uniform, drive: driveClosed,
	},
	{
		Name: "scan_segments",
		Why:  "independent d=4 on disk segments, cache off: zone-map prune, page decode, vectorized filter and local skylines do the work; the kernel and encoder do almost none",
		dist: datagen.Independent, rows: scanRows, segments: true,
		queries: func(rows int) []string {
			return []string{fmt.Sprintf("SELECT * FROM t WHERE id >= %d AND d1 < 0.5 SKYLINE OF COMPLETE d1 MIN, d2 MIN, d3 MIN, d4 MIN", rows/2)}
		},
		weights: uniform, drive: driveClosed,
	},
	{
		Name: "hot_serve",
		Why:  "8 warmed shapes, zipf 1.2, open loop then capacity: every request is a cache hit, so parse, lookup, row encode, JSON and socket are the whole cost; the working set fits the cache",
		dist: datagen.AntiCorrelated, rows: hotRows, cache: true,
		queries: func(int) []string { return hotShapes },
		weights: zipfWeights, drive: driveHot,
	},
	{
		Name: "append_mix",
		Why:  "one 20-row append then 9 cached reads, repeated: writes beside reads on the same cache, so appends pay the incremental upgrade that keeps reads hits",
		dist: datagen.AntiCorrelated, rows: appendRows, cache: true,
		queries: func(int) []string { return hotShapes[:4] },
		weights: uniform, appendShare: 1.0 / (1 + cycleReads), drive: driveAppend,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// scaled shrinks a workload for the smoke test; scale 1 is the benchmark.
func (s spec) scaled(scale float64) spec {
	if scale >= 1 {
		return s
	}
	s.rows = int(float64(s.rows) * scale)
	if s.rows < 200 {
		s.rows = 200
	}
	return s
}

// opKind separates the two timed op classes.
type opKind int

const (
	opQuery opKind = iota
	opAppend
)

// op is one request the generator can send, prepared before timing.
type op struct {
	kind  opKind
	shape int    // query index, for opQuery
	path  string // "/query" or "/append"
	body  []byte
	rows  []types.Row // the batch, for opAppend
}

// dataset is everything generated from the seed before any clock starts.
type dataset struct {
	spec    spec
	seed    int64
	schema  *types.Schema
	rows    []types.Row // in-memory workloads: initial rows followed by the append stream
	initial int         // rows the table starts with
	segDir  string      // segment workloads
	// prefix is the prefixRows-row slice the rewrite oracle runs on; for
	// the segment table it straddles the id predicate's boundary.
	prefix  []types.Row
	queries []string
	weights []float64
	qops    []*op // one per query
	// appends is the batch stream of one append_mix round, in order.
	appends []*op

	writeRowsPerS float64 // segment preparation throughput
	bytesPerRow   float64 // on-disk bytes ÷ rows
}

func queryOp(shape int, sql string) *op {
	body, err := json.Marshal(server.QueryRequest{SQL: sql})
	if err != nil {
		panic(err) // a string always marshals
	}
	return &op{kind: opQuery, shape: shape, path: "/query", body: body}
}

// appendOp prepares one /append. Its rows field holds the batch as the
// server decodes it — every JSON number a DOUBLE — so sessions fed
// directly end in the same state as the served one.
func appendOp(rows []types.Row) (*op, error) {
	recs := make([][]interface{}, len(rows))
	loose := make([]types.Row, len(rows))
	for i, r := range rows {
		recs[i] = jsonRow(r)
		loose[i] = make(types.Row, len(r))
		for j, v := range r {
			if v.Kind() == types.KindInt {
				v = types.Float(float64(v.AsInt()))
			}
			loose[i][j] = v
		}
	}
	body, err := json.Marshal(server.AppendRequest{Name: tableName, Rows: recs})
	if err != nil {
		return nil, fmt.Errorf("encoding append batch: %w", err)
	}
	return &op{kind: opAppend, path: "/append", body: body, rows: loose}, nil
}

// jsonRow is the JSON shape of a row as skysqld writes and reads it.
func jsonRow(r types.Row) []interface{} {
	rec := make([]interface{}, len(r))
	for j, v := range r {
		switch v.Kind() {
		case types.KindNull:
			rec[j] = nil
		case types.KindInt:
			rec[j] = v.AsInt()
		case types.KindFloat:
			rec[j] = v.AsFloat()
		case types.KindString:
			rec[j] = v.AsString()
		case types.KindBool:
			rec[j] = v.AsBool()
		}
	}
	return rec
}

// prepare generates a workload's inputs from the seed. workDir receives
// the segment files; nothing here is timed as set-up.
func prepare(s spec, seed int64, workDir string) (*dataset, error) {
	cfg := datagen.Config{Seed: seed, Complete: true}
	d := &dataset{spec: s, seed: seed, schema: datagen.SyntheticSchema(dims, cfg),
		initial: s.rows, queries: s.queries(s.rows)}
	d.weights = s.weights(len(d.queries))
	for i, q := range d.queries {
		d.qops = append(d.qops, queryOp(i, q))
	}
	total := s.rows
	if s.drive == driveAppend {
		total += replayReps * batchRows // a round uses the first roundSize batches, the replay all
	}
	if !s.segments {
		d.rows = make([]types.Row, 0, total)
		err := datagen.SyntheticStream(s.dist, total, dims, cfg, func(r types.Row) error {
			d.rows = append(d.rows, r)
			return nil
		})
		if err != nil {
			return nil, err
		}
		n := prefixRows
		if n > s.rows {
			n = s.rows
		}
		d.prefix = d.rows[:n]
		for at := s.rows; at < total; at += batchRows {
			o, err := appendOp(d.rows[at : at+batchRows])
			if err != nil {
				return nil, err
			}
			d.appends = append(d.appends, o)
		}
		return d, nil
	}

	d.segDir = filepath.Join(workDir, fmt.Sprintf("%s-seed%d", s.Name, seed))
	if err := os.RemoveAll(d.segDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(d.segDir, 0o755); err != nil {
		return nil, err
	}
	segRows := 0 // the default segment size at full scale
	if s.rows < scanRows {
		segRows = s.rows/7 + 1 // keep the smoke run's 7-segment layout
	}
	lo := s.rows/2 - prefixRows/2
	if lo < 0 {
		lo = 0
	}
	start := time.Now()
	w := storage.NewWriter(d.schema, d.segDir, tableName, segRows)
	i := 0
	err := datagen.SyntheticStream(s.dist, s.rows, dims, cfg, func(r types.Row) error {
		if i >= lo && i < lo+prefixRows {
			d.prefix = append(d.prefix, r)
		}
		i++
		return w.Append(r)
	})
	if err != nil {
		return nil, err
	}
	if _, err := w.Close(); err != nil {
		return nil, err
	}
	d.writeRowsPerS = float64(s.rows) / time.Since(start).Seconds()
	entries, err := os.ReadDir(d.segDir)
	if err != nil {
		return nil, err
	}
	var bytes int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		bytes += info.Size()
	}
	d.bytesPerRow = float64(bytes) / float64(s.rows)
	return d, nil
}

// cleanup removes the segment files a dataset wrote.
func (d *dataset) cleanup() {
	if d.segDir != "" {
		_ = os.RemoveAll(d.segDir) // scratch under the benchmark's own out directory
	}
}

// sessionOptions is the one configuration every served session gets:
// skysqld's defaults, real pool, no admission limit, no budget, no chaos.
func (d *dataset) sessionOptions() []skysql.Option {
	opts := []skysql.Option{skysql.WithExecutors(executors)}
	if d.spec.cache {
		opts = append(opts, skysql.WithResultCache(cacheBytes))
	}
	return opts
}

// register attaches the dataset's table in its initial state to sess.
func (d *dataset) register(sess *skysql.Session) (*catalog.Table, error) {
	if d.spec.segments {
		return nil, sess.OpenSegments(tableName, d.segDir)
	}
	// A private copy with no spare capacity: appends must never write
	// into the generator's backing array, which later rounds start from.
	rows := append(make([]types.Row, 0, d.initial), d.rows[:d.initial]...)
	t, err := catalog.NewTable(tableName, d.schema, rows)
	if err != nil {
		return nil, err
	}
	sess.RegisterTable(t)
	return t, nil
}

// fixture is one set-up server: a session behind server.New on a real
// loopback listener — cmd/skysqld's wiring, in-process only because the
// binary has no flag for OpenSegments.
type fixture struct {
	sess  *skysql.Session
	table *catalog.Table // nil for segment tables
	base  string
	srv   *http.Server
	done  chan error
}

// setUp builds, registers, listens and warms up; the returned duration is
// one setup_s sample. wrap, when non-nil, is the traced pass's middleware.
func setUp(d *dataset, wrap func(http.Handler) http.Handler) (*fixture, time.Duration, error) {
	start := time.Now()
	sess := skysql.NewSession(d.sessionOptions()...)
	table, err := d.register(sess)
	if err != nil {
		sess.Close()
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sess.Close()
		return nil, 0, err
	}
	var h http.Handler = server.New(sess)
	if wrap != nil {
		h = wrap(h)
	}
	fx := &fixture{sess: sess, table: table, base: "http://" + ln.Addr().String(),
		srv: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { fx.done <- fx.srv.Serve(ln) }()

	c := newConn()
	defer c.close()
	warm := d.qops
	if !d.spec.cache {
		warm = make([]*op, warmups)
		for i := range warm {
			warm[i] = d.qops[i%len(d.qops)]
		}
	}
	for _, o := range warm {
		if res := c.do(fx.base, o); !res.ok() {
			fx.close()
			return nil, 0, fmt.Errorf("warm-up %s: %s", d.queries[o.shape], res.describe())
		}
	}
	return fx, time.Since(start), nil
}

// close drains the server and stops the pool, returning once the serve
// goroutine has exited.
func (fx *fixture) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := fx.srv.Shutdown(ctx); err != nil {
		_ = fx.srv.Close() // idle keep-alives only; nothing left to drain
	}
	<-fx.done
	fx.sess.Close()
}

// environment describes the machine and configuration a report came from.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Executors  int    `json:"executors"`
	Pool       int    `json:"pool"`
	CacheBytes int64  `json:"cache_bytes"`
	GCPercent  int    `json:"gc_percent"`
	Strategy   string `json:"strategy"`
}

func currentEnvironment(commit string) environment {
	pool := runtime.NumCPU()
	if pool > executors {
		pool = executors
	}
	return environment{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit, Executors: executors, Pool: pool,
		CacheBytes: cacheBytes, GCPercent: gcPercent, Strategy: "auto"}
}
