package main

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// conn is one persistent connection of the generator: a client whose
// transport holds exactly one socket, and a body buffer reused across
// requests so the generator's own allocation stays small and constant.
type conn struct {
	client *http.Client
	buf    bytes.Buffer
}

// requestTimeout fails a request the server never answers, so that a
// hung server ends the run as a failed op instead of hanging it; the
// slowest op of any workload takes a fraction of a second.
const requestTimeout = 60 * time.Second

func newConn() *conn {
	return &conn{client: &http.Client{Timeout: requestTimeout, Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// opResult is what the generator saw of one request.
type opResult struct {
	status   int
	rowCount int // parsed from a /query answer; -1 when absent
	bytes    int
	err      error
}

func (r opResult) ok() bool { return r.err == nil && r.status == http.StatusOK }

func (r opResult) describe() string {
	if r.err != nil {
		return r.err.Error()
	}
	return fmt.Sprintf("HTTP %d", r.status)
}

var (
	rowCountKey = []byte(`"row_count":`)
	okTrue      = []byte(`"ok":true`)
)

// traceHeader carries the op's id to the traced middleware, so that the
// client span and the handler span of one request share an identifier.
const traceHeader = "X-Bench-Op"

// do sends one untraced op.
func (c *conn) do(base string, o *op) opResult { return c.roundTrip(base, o, 0) }

// send performs one op and returns when it left and when its answer had
// arrived; with a tracer it also records the client span, under a fresh
// trace id that the request carries to the traced middleware.
func (c *conn) send(base string, o *op, tr *tracer, phase string) (res opResult, id int64, start, end time.Time) {
	if tr != nil {
		id = tr.ids.Add(1)
	}
	start = time.Now()
	res = c.roundTrip(base, o, id)
	end = time.Now()
	if tr != nil {
		tr.client(id, o, phase, start, end)
	}
	return res, id, start, end
}

// roundTrip sends one op, with its trace id attached when non-zero, and
// reads the whole answer. The body is scanned for row_count (queries) or
// "ok":true (appends), never JSON-decoded.
func (c *conn) roundTrip(base string, o *op, id int64) opResult {
	req, err := http.NewRequest(http.MethodPost, base+o.path, bytes.NewReader(o.body))
	if err != nil {
		return opResult{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if id != 0 {
		req.Header.Set(traceHeader, strconv.FormatInt(id, 10))
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return opResult{err: err}
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	res := opResult{status: resp.StatusCode, rowCount: -1, bytes: c.buf.Len(), err: err}
	if err != nil {
		return res
	}
	body := c.buf.Bytes()
	switch o.kind {
	case opQuery:
		res.rowCount = scanRowCount(body)
	case opAppend:
		if res.status == http.StatusOK && !bytes.Contains(body, okTrue) {
			res.err = fmt.Errorf("append answer lacks ok:true")
		}
	}
	return res
}

// scanRowCount reads the integer after the last "row_count": in a /query
// answer; -1 when there is none.
func scanRowCount(body []byte) int {
	at := bytes.LastIndex(body, rowCountKey)
	if at < 0 {
		return -1
	}
	at += len(rowCountKey)
	n, digits := 0, 0
	for ; at < len(body) && body[at] >= '0' && body[at] <= '9'; at++ {
		n = n*10 + int(body[at]-'0')
		digits++
	}
	if digits == 0 {
		return -1
	}
	return n
}

// sample is one successful op: when its answer arrived and how long the
// op took.
type sample struct {
	end time.Time
	lat time.Duration
}

// tally is the outcome of a timed window.
type tally struct {
	queries   []sample
	appends   []sample
	attempted int
	failed    int
	start     time.Time
	wall      time.Duration // timed wall clock the ops ran in
	schedLag  []time.Duration
	firstErr  string
}

func (t *tally) fail(what string) {
	t.failed++
	if t.firstErr == "" {
		t.firstErr = what
	}
}

// record files one op's outcome; want is the verified row count of a
// query, or -1 to skip the check (appends).
func (t *tally) record(o *op, res opResult, end time.Time, lat time.Duration, want int) {
	t.attempted++
	switch {
	case !res.ok():
		t.fail(o.path + ": " + res.describe())
		return
	case o.kind == opQuery && res.rowCount != want:
		t.fail(fmt.Sprintf("%s shape %d: row_count %d, verified answer has %d", o.path, o.shape, res.rowCount, want))
		return
	}
	if o.kind == opAppend {
		t.appends = append(t.appends, sample{end, lat})
	} else {
		t.queries = append(t.queries, sample{end, lat})
	}
}

// merge adds another tally's ops; start and wall stay the receiver's.
func (t *tally) merge(o *tally) {
	t.queries = append(t.queries, o.queries...)
	t.appends = append(t.appends, o.appends...)
	t.schedLag = append(t.schedLag, o.schedLag...)
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

// minSliceOps is the fewest ops a slice of a throughput window holds.
const minSliceOps = 10

// rates cuts the window's successful ops, in order of arrival, into up to
// k consecutive slices of equal count and returns the ops per second of
// each: its count over the time from the previous slice's last answer (the
// window's start for the first) to its own. Slices of equal count rather
// than equal time keep a slow workload's rates from being whole-op
// fractions of one another.
func (t *tally) rates(k int) []float64 {
	ends := make([]time.Time, 0, len(t.queries)+len(t.appends))
	for _, list := range [][]sample{t.queries, t.appends} {
		for _, s := range list {
			ends = append(ends, s.end)
		}
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i].Before(ends[j]) })
	if most := len(ends) / minSliceOps; k > most {
		k = most
	}
	if k < 1 {
		k = 1
	}
	var out []float64
	from, done := t.start, 0
	for i := 1; i <= k; i++ {
		upto := i * len(ends) / k
		if upto == done {
			continue
		}
		to := ends[upto-1]
		if took := to.Sub(from).Seconds(); took > 0 {
			out = append(out, float64(upto-done)/took)
		}
		from, done = to, upto
	}
	return out
}

// fanOut runs drive once per connection, each with its own tally, and
// merges them into the tally of the window that began at start.
func fanOut(conns int, start time.Time, drive func(c *conn, t *tally)) *tally {
	parts := make([]*tally, conns)
	var wg sync.WaitGroup
	for k := range parts {
		parts[k] = &tally{}
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			c := newConn()
			defer c.close()
			drive(c, t)
		}(parts[k])
	}
	wg.Wait()
	total := &tally{start: start, wall: time.Since(start)}
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// closedLoop drives clients connections, each sending its next op only
// after the previous answer, until the deadline. next picks the op for
// the i-th request overall; want is the verified row count per shape; tr,
// when non-nil, receives the client span of every request.
func closedLoop(base string, clients int, d time.Duration, next func(i int) *op, want []int, tr *tracer) *tally {
	var counter atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	return fanOut(clients, start, func(c *conn, t *tally) {
		for time.Now().Before(deadline) {
			o := next(int(counter.Add(1) - 1))
			res, _, sent, end := c.send(base, o, tr, phaseTimed)
			t.record(o, res, end, end.Sub(sent), want[o.shape])
		}
	})
}

// spinAhead is how long before a request is due its connection stops
// sleeping and busy-waits.
const spinAhead = 2 * time.Millisecond

// openLoop fires seq[i] at start + i/rate from conns persistent
// connections. Each connection takes the next unsent index, waits for its
// due time and sends, so a stalled connection delays later sends but
// never drops one. Latency runs from the due time, which charges a stall
// to the requests it delayed; how late a send left once it was due and a
// connection was free is kept apart, as the generator's own lag.
func openLoop(base string, conns int, rate float64, seq []*op, want []int, tr *tracer) *tally {
	interval := time.Duration(float64(time.Second) / rate)
	var counter atomic.Int64
	start := time.Now().Add(5 * time.Millisecond) // let every connection reach its first sleep
	return fanOut(conns, start, func(c *conn, t *tally) {
		for {
			i := int(counter.Add(1) - 1)
			if i >= len(seq) {
				return
			}
			due := start.Add(time.Duration(i) * interval)
			ready := due
			if free := time.Now(); free.After(due) {
				ready = free
			}
			// A timer fires up to a millisecond late and leaves the core cold;
			// sleep short of the due time and spin the rest.
			time.Sleep(time.Until(ready) - spinAhead)
			for time.Now().Before(ready) {
			}
			res, _, sent, end := c.send(base, seq[i], tr, phaseTimed)
			t.schedLag = append(t.schedLag, sent.Sub(ready))
			t.record(seq[i], res, end, end.Sub(due), want[seq[i].shape])
		}
	})
}

// schedLagP99MS is how late, at p99, the open loop's sends left, in
// milliseconds; 0 for a window without an open loop.
func (t *tally) schedLagP99MS() float64 {
	return percentile(sortedCopy(durationsMS(t.schedLag)), 0.99)
}
