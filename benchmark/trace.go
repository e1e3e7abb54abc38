package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. The spans of one
// request share Trace; Parent is the id of the span that caused this one
// (0 for the client's round trip, the root).
type span struct {
	Trace   int64   `json:"trace"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	Op      string  `json:"op"`    // "query:<shape>" or "append"
	Phase   string  `json:"phase"` // "timed" or "replay"
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	// Paired marks spans measured in the direct replay of the same op on
	// the same session and laid inside the HTTP handler span that would
	// have contained them: the engine has no spans of its own yet, so the
	// benchmark times the calls from outside.
	Paired bool `json:"paired,omitempty"`
}

func (s span) durMS() float64 { return (s.EndUS - s.StartUS) / 1000 }

// Phases of a traced run: the timed window replayed with spans on (its
// throughput against the untraced window is the tracing overhead), and
// the fixed-count replay the per-layer numbers come from.
const (
	phaseTimed  = "timed"
	phaseReplay = "replay"
)

// Span names. The stage spans split session.execute by
// Metrics().StageTimes(): the first stage scans, filters and computes
// local skylines, the last one the global skyline.
const (
	spanRoundtrip  = "client.roundtrip"
	spanHandler    = "server.handler"
	spanCompile    = "session.compile"
	spanExecute    = "session.execute"
	spanStageFirst = "physical.stage_first"
	spanStageMid   = "physical.stage_mid"
	spanStageLast  = "physical.stage_last"
	// The serial decode of the segments a scan does not prune, which the
	// engine runs before its first stage; timed by decoding them directly.
	spanStorageDecode = "storage.decode"
	// The append op's children: the cache-less twin's AppendRows, and
	// what the cached twin's AppendRows took on top of it.
	spanCatalogAppend = "catalog.append"
	spanCacheUpgrade  = "resultcache.upgrade"
)

// request gathers what the tracer learns about one op from its different
// observers; spans are built from it once the run is over.
type request struct {
	op, phase                string
	clientStart, clientEnd   time.Time
	handlerStart, handlerEnd time.Time
	paired                   []pairedSpan // children of the handler, in order
}

// pairedSpan is a directly timed call, optionally with its own children.
type pairedSpan struct {
	name     string
	dur      time.Duration
	children []pairedSpan
}

// tracer keeps every observation in memory until the run ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu       sync.Mutex
	requests map[int64]*request
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), requests: make(map[int64]*request)}
}

func opLabel(o *op) string {
	if o.kind == opAppend {
		return "append"
	}
	return "query:" + strconv.Itoa(o.shape)
}

func (t *tracer) get(id int64) *request {
	r := t.requests[id]
	if r == nil {
		r = &request{}
		t.requests[id] = r
	}
	return r
}

// client records the generator's span of request id.
func (t *tracer) client(id int64, o *op, phase string, start, end time.Time) {
	t.mu.Lock()
	r := t.get(id)
	r.op, r.phase, r.clientStart, r.clientEnd = opLabel(o), phase, start, end
	t.mu.Unlock()
}

// pair attaches directly timed calls to request id as children of its
// handler span.
func (t *tracer) pair(id int64, children ...pairedSpan) {
	t.mu.Lock()
	r := t.get(id)
	r.paired = append(r.paired, children...)
	t.mu.Unlock()
}

// middleware records a span around the server's ServeHTTP for requests
// that carry a trace id.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.Header.Get(traceHeader), 10, 64)
		if err != nil || id == 0 {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		end := time.Now()
		t.mu.Lock()
		req := t.get(id)
		req.handlerStart, req.handlerEnd = start, end
		t.mu.Unlock()
	})
}

func (t *tracer) rel(at time.Time) float64 { return us(at.Sub(t.epoch)) }

// spans flattens the observations into the span list, ordered by trace.
func (t *tracer) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := make([]int64, 0, len(t.requests))
	for id := range t.requests {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var out []span
	next := 0
	add := func(s span) int {
		next++
		s.ID = next
		out = append(out, s)
		return next
	}
	for _, id := range ids {
		r := t.requests[id]
		if r.clientStart.IsZero() {
			continue // a handler span without its client: not one of ours
		}
		base := span{Trace: id, Op: r.op, Phase: r.phase}
		root := base
		root.Name, root.StartUS, root.EndUS = spanRoundtrip, t.rel(r.clientStart), t.rel(r.clientEnd)
		rootID := add(root)
		if r.handlerStart.IsZero() {
			continue
		}
		h := base
		h.Name, h.Parent = spanHandler, rootID
		h.StartUS, h.EndUS = t.rel(r.handlerStart), t.rel(r.handlerEnd)
		hID := add(h)
		// Paired spans are laid end to end from their parent's start and
		// clipped to its end: a replay that ran longer than the request
		// it is paired with must not claim more than the request took.
		var lay func(parent int, at, limit float64, kids []pairedSpan)
		lay = func(parent int, at, limit float64, kids []pairedSpan) {
			for _, k := range kids {
				s := base
				s.Name, s.Parent, s.Paired = k.name, parent, true
				s.StartUS, s.EndUS = at, at+us(k.dur)
				if s.EndUS > limit {
					s.EndUS = limit
				}
				lay(add(s), at, s.EndUS, k.children)
				at = s.EndUS
			}
		}
		lay(hID, h.StartUS, h.EndUS, r.paired)
	}
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval its children cover (children clipped to the parent and
// their overlaps merged), in milliseconds.
func selfTimes(spans []span) map[int]float64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].StartUS < cs[j].StartUS })
		covered, edge := 0.0, s.StartUS
		for _, c := range cs {
			lo, hi := c.StartUS, c.EndUS
			if lo < edge {
				lo = edge
			}
			if hi > s.EndUS {
				hi = s.EndUS
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.EndUS - s.StartUS - covered) / 1000
	}
	return self
}

// profile is, per op label and span name, one value per traced request:
// the span's duration (total) and self time, same-named spans of one
// request summed. Values are in milliseconds.
type profile struct {
	total, self map[string]map[string][]float64
	traces      map[string]int // requests per op label
}

// profileOf aggregates the spans of one phase. A request's spans all
// carry its phase, so filtering first keeps every tree whole.
func profileOf(all []span, phase string) *profile {
	p := &profile{total: map[string]map[string][]float64{}, self: map[string]map[string][]float64{},
		traces: map[string]int{}}
	var spans []span
	for _, s := range all {
		if s.Phase == phase {
			spans = append(spans, s)
		}
	}
	self := selfTimes(spans)
	type key struct {
		trace int64
		name  string
	}
	tot, slf := map[key]float64{}, map[key]float64{}
	ops := map[int64]string{}
	var order []key
	for _, s := range spans {
		k := key{s.Trace, s.Name}
		if _, seen := tot[k]; !seen {
			order = append(order, k)
		}
		tot[k] += s.durMS()
		slf[k] += self[s.ID]
		ops[s.Trace] = s.Op
	}
	for _, op := range ops {
		p.traces[op]++
	}
	for _, k := range order {
		op := ops[k.trace]
		if p.total[op] == nil {
			p.total[op], p.self[op] = map[string][]float64{}, map[string][]float64{}
		}
		p.total[op][k.name] = append(p.total[op][k.name], tot[k])
		p.self[op][k.name] = append(p.self[op][k.name], slf[k])
	}
	return p
}

// medianOf is the median over an op's requests of a span name's total or
// self time; requests without that span count as 0 (a cache hit runs no
// stage).
func (p *profile) medianOf(m map[string]map[string][]float64, op, name string) float64 {
	vals := append([]float64(nil), m[op][name]...)
	for len(vals) < p.traces[op] {
		vals = append(vals, 0)
	}
	return median(vals)
}

// traceFile is what -trace writes at exit.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Env      environment `json:"env"`
	Spans    []span      `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
