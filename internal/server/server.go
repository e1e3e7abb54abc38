// Package server is skysqld's HTTP/JSON layer: a long-lived query server
// over one shared skysql.Session. Every in-flight request executes
// against the same catalog, work-stealing worker pool, result cache,
// admission controller, and global memory governor — the session IS the
// shared state, and this package is a thin, stateless translation of
// HTTP requests onto it.
//
// Endpoints (see docs/skysqld.md for the full API reference):
//
//	POST /query   execute SQL, returning rows plus per-query metrics
//	POST /tables  create (or replace) an in-memory table from JSON rows
//	POST /append  append JSON rows to a registered table
//	POST /drop    drop a table
//	GET  /stats   server / admission / governor / cache / pool counters
//	GET  /healthz liveness probe
//
// Admission rejections surface as HTTP 429, global or per-query memory
// budget exhaustion as 503, deadline expiry as 504, and malformed or
// unresolvable queries as 400 — so an open-loop load generator can bucket
// outcomes without parsing error prose.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"skysql"
	"skysql/internal/cluster"
	"skysql/internal/types"

	"context"
)

// MaxRequestBytes bounds a request body; larger bodies fail with 400
// before any decoding work.
const MaxRequestBytes = 64 << 20

// maxPooledBody is the largest /query body buffer kept for reuse; a rare
// huge answer must not pin its buffer for the life of the process.
const maxPooledBody = 1 << 20

// queryBodies recycles the buffers /query bodies are assembled in (*[]byte).
// It belongs to the package, not to a Server: the runtime keeps every pool
// in use reachable until two collections after its last Put, and a pool
// inside the Server would keep a closed server — session, catalog and
// result cache with it — alive that long.
var queryBodies = sync.Pool{New: func() interface{} { return new([]byte) }}

// Server translates HTTP requests onto one shared skysql.Session.
type Server struct {
	sess *skysql.Session
	mux  *http.ServeMux

	queries atomic.Int64 // POST /query requests that reached execution
	errors  atomic.Int64 // requests answered with a non-2xx status
}

// New creates a server over the given session. The session's own options
// decide the serving policy: WithMaxConcurrentQueries/WithAdmissionQueue
// for admission, WithGlobalMemoryBudget for the shared governor,
// WithResultCache for cross-request caching.
func New(sess *skysql.Session) *Server {
	s := &Server{sess: sess, mux: http.NewServeMux()}
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/tables", s.handleTables)
	s.mux.HandleFunc("/append", s.handleAppend)
	s.mux.HandleFunc("/drop", s.handleDrop)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Session returns the wrapped session (tests reach through for stats).
func (s *Server) Session() *skysql.Session { return s.sess }

// ---- request/response shapes ----

// QueryRequest is the body of POST /query.
type QueryRequest struct {
	SQL string `json:"sql"`
	// TimeoutMillis, when positive, bounds this query's execution wall
	// clock (on top of any session-wide WithQueryTimeout).
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// Column describes one output column of a query result.
type Column struct {
	Name     string `json:"name"`
	Type     string `json:"type"`
	Nullable bool   `json:"nullable"`
}

// QueryMetrics is the deterministic slice of a query's execution
// counters, flattened for JSON. Wall-clock duration is reported beside
// it, not inside it: everything in here is a pure function of (query
// sequence, data, configuration).
type QueryMetrics struct {
	Stages           int64    `json:"stages"`
	RowsShuffled     int64    `json:"rows_shuffled"`
	PeakBytes        int64    `json:"peak_bytes"`
	CacheHits        int64    `json:"cache_hits"`
	CacheMisses      int64    `json:"cache_misses"`
	Morsels          int64    `json:"morsels"`
	Steals           int64    `json:"steals"`
	TaskRetries      int64    `json:"task_retries"`
	DegradationSteps int64    `json:"degradation_steps"`
	Degradations     []string `json:"degradations,omitempty"`
	SegmentsPruned   int64    `json:"segments_pruned"`
	SegmentsSpilled  int64    `json:"segments_spilled"`
}

// QueryResponse is the body of a successful POST /query, as clients decode
// it. The server never builds one: handleQuery appends the same fields, in
// this order, straight into a byte buffer.
type QueryResponse struct {
	Columns    []Column        `json:"columns"`
	Rows       [][]interface{} `json:"rows"`
	RowCount   int             `json:"row_count"`
	DurationMS float64         `json:"duration_ms"`
	Metrics    QueryMetrics    `json:"metrics"`
}

// ErrorResponse is the body of every non-2xx answer. Code is a stable
// machine-readable bucket: "bad_request", "admission_rejected",
// "memory_budget", "deadline", "canceled", "internal".
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// TableRequest is the body of POST /tables.
type TableRequest struct {
	Name    string          `json:"name"`
	Columns []Column        `json:"columns"`
	Rows    [][]interface{} `json:"rows"`
}

// AppendRequest is the body of POST /append.
type AppendRequest struct {
	Name string          `json:"name"`
	Rows [][]interface{} `json:"rows"`
}

// DropRequest is the body of POST /drop.
type DropRequest struct {
	Name string `json:"name"`
}

// Stats is the body of GET /stats. Cumulative counters are per-process;
// instantaneous gauges are labeled in docs/skysqld.md.
type Stats struct {
	Server    ServerStats           `json:"server"`
	Admission skysql.AdmissionStats `json:"admission"`
	Governor  skysql.GovernorStats  `json:"governor"`
	Cache     CacheStats            `json:"cache"`
	Pool      PoolStats             `json:"pool"`
	Catalog   CatalogStats          `json:"catalog"`
}

// ServerStats counts requests at the HTTP layer.
type ServerStats struct {
	Queries int64 `json:"queries_total"`
	Errors  int64 `json:"errors_total"`
}

// CacheStats mirrors the session's result-cache counters.
type CacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Upgrades      int64 `json:"incremental_upgrades"`
	Invalidations int64 `json:"invalidations"`
	Entries       int   `json:"entries"`
	UsedBytes     int64 `json:"used_bytes"`
}

// PoolStats describes the shared execution substrate.
type PoolStats struct {
	Workers   int `json:"workers"`
	Executors int `json:"executors"`
}

// CatalogStats lists the registered tables.
type CatalogStats struct {
	Tables []string `json:"tables"`
}

// ---- handlers ----

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !s.decodePost(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.SQL) == "" {
		s.fail(w, http.StatusBadRequest, "bad_request", "empty sql")
		return
	}
	ctx := r.Context()
	if req.TimeoutMillis > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMillis)*time.Millisecond)
		defer cancel()
	}
	df, err := s.sess.SQL(req.SQL)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	s.queries.Add(1)
	// The whole body is assembled before the status line goes out, so a
	// result JSON cannot carry still answers with an error status.
	buf := queryBodies.Get().(*[]byte)
	body, err := appendQueryBody(ctx, (*buf)[:0], df)
	if err != nil {
		status, code := classify(err)
		s.fail(w, status, code, err.Error())
	} else {
		s.write(w, http.StatusOK, body)
	}
	if cap(body) <= maxPooledBody {
		*buf = body
		queryBodies.Put(buf)
	}
}

// appendQueryBody executes df and appends the /query answer to dst:
// QueryResponse's fields in their declared order, as encoding/json would
// write them, and its trailing newline. On an error dst comes back with
// whatever had been appended, to be reused, not sent.
func appendQueryBody(ctx context.Context, dst []byte, df *skysql.DataFrame) ([]byte, error) {
	schema, err := df.Schema()
	if err != nil {
		return dst, err
	}
	dst = append(dst, `{"columns":`...)
	dst = appendJSON(dst, encodeColumns(schema))
	dst = append(dst, `,"rows":`...)
	dst, rowCount, err := df.CollectJSON(ctx, dst)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"row_count":`...)
	dst = strconv.AppendInt(dst, int64(rowCount), 10)
	dst = append(dst, `,"duration_ms":`...)
	dst, _ = types.Float(float64(df.Duration()) / float64(time.Millisecond)).AppendJSON(dst) // a duration is finite
	dst = append(dst, `,"metrics":`...)
	dst = appendJSON(dst, encodeMetrics(df.Metrics()))
	return append(dst, "}\n"...), nil
}

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	var req TableRequest
	if !s.decodePost(w, r, &req) {
		return
	}
	if req.Name == "" || len(req.Columns) == 0 {
		s.fail(w, http.StatusBadRequest, "bad_request", "table name and columns are required")
		return
	}
	fields := make([]types.Field, len(req.Columns))
	for i, c := range req.Columns {
		kind, err := parseKind(c.Type)
		if err != nil {
			s.fail(w, http.StatusBadRequest, "bad_request", err.Error())
			return
		}
		fields[i] = types.Field{Name: strings.ToLower(c.Name), Type: kind, Nullable: c.Nullable}
	}
	schema := types.NewSchema(fields...)
	rows, err := decodeRows(req.Rows, schema)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	if err := s.sess.CreateTable(req.Name, schema, rows); err != nil {
		s.fail(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	s.reply(w, http.StatusOK, map[string]interface{}{"ok": true, "table": strings.ToLower(req.Name), "rows": len(rows)})
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	var req AppendRequest
	if !s.decodePost(w, r, &req) {
		return
	}
	if req.Name == "" {
		s.fail(w, http.StatusBadRequest, "bad_request", "table name is required")
		return
	}
	rows, err := decodeRowsLoose(req.Rows)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	if err := s.sess.AppendRows(req.Name, rows); err != nil {
		s.fail(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	s.reply(w, http.StatusOK, map[string]interface{}{"ok": true, "rows": len(rows)})
}

func (s *Server) handleDrop(w http.ResponseWriter, r *http.Request) {
	var req DropRequest
	if !s.decodePost(w, r, &req) {
		return
	}
	if req.Name == "" {
		s.fail(w, http.StatusBadRequest, "bad_request", "table name is required")
		return
	}
	s.sess.DropTable(req.Name)
	s.reply(w, http.StatusOK, map[string]interface{}{"ok": true})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "bad_request", "GET only")
		return
	}
	cs := s.sess.ResultCacheStats()
	s.reply(w, http.StatusOK, Stats{
		Server:    ServerStats{Queries: s.queries.Load(), Errors: s.errors.Load()},
		Admission: s.sess.AdmissionStats(),
		Governor:  s.sess.GovernorStats(),
		Cache: CacheStats{Hits: cs.Hits, Misses: cs.Misses, Evictions: cs.Evictions,
			Upgrades: cs.Upgrades, Invalidations: cs.Invalidations,
			Entries: cs.Entries, UsedBytes: cs.UsedBytes},
		Pool:    PoolStats{Workers: s.sess.PoolSize(), Executors: s.sess.Executors()},
		Catalog: CatalogStats{Tables: s.sess.Tables()},
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.reply(w, http.StatusOK, map[string]bool{"ok": true})
}

// ---- plumbing ----

// decodePost enforces method + body discipline for the mutating
// endpoints; on failure it has already written the error response.
func (s *Server) decodePost(w http.ResponseWriter, r *http.Request, into interface{}) bool {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "bad_request", "POST only")
		return false
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxRequestBytes+1))
	if err != nil {
		s.fail(w, http.StatusBadRequest, "bad_request", "reading body: "+err.Error())
		return false
	}
	if len(body) > MaxRequestBytes {
		s.fail(w, http.StatusBadRequest, "bad_request", "request body too large")
		return false
	}
	if err := json.Unmarshal(body, into); err != nil {
		s.fail(w, http.StatusBadRequest, "bad_request", "decoding JSON: "+err.Error())
		return false
	}
	return true
}

// reply answers with one of this package's own response shapes.
func (s *Server) reply(w http.ResponseWriter, status int, body interface{}) {
	s.write(w, status, append(appendJSON(nil, body), '\n'))
}

// write sends a finished body. Nothing is reported when the client has
// gone away: there is nobody left to tell.
func (s *Server) write(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// appendJSON appends encoding/json's rendering of v, which must be one of
// the response shapes above: structs and maps of strings, numbers counted
// by the server and booleans, which always marshal.
func appendJSON(dst []byte, v interface{}) []byte {
	data, _ := json.Marshal(v)
	return append(dst, data...)
}

func (s *Server) fail(w http.ResponseWriter, status int, code, msg string) {
	s.errors.Add(1)
	s.reply(w, status, ErrorResponse{Error: msg, Code: code})
}

// classify buckets an execution error into (HTTP status, stable code).
func classify(err error) (int, string) {
	switch {
	case errors.Is(err, skysql.ErrAdmission):
		return http.StatusTooManyRequests, "admission_rejected"
	case errors.Is(err, cluster.ErrMemoryBudget):
		return http.StatusServiceUnavailable, "memory_budget"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline"
	case errors.Is(err, cluster.ErrCanceled):
		return 499, "canceled" // nginx's client-closed-request; no stdlib constant
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// ---- value conversion ----

func encodeColumns(schema *types.Schema) []Column {
	out := make([]Column, schema.Len())
	for i, f := range schema.Fields {
		out[i] = Column{Name: f.Name, Type: f.Type.String(), Nullable: f.Nullable}
	}
	return out
}

// decodeRows converts JSON rows against a schema: numbers land as the
// declared kind (a JSON 3 or 3.0 is a valid BIGINT; 3.5 is not), null as
// SQL NULL.
func decodeRows(in [][]interface{}, schema *types.Schema) ([]types.Row, error) {
	rows := make([]types.Row, len(in))
	for i, rec := range in {
		if len(rec) != schema.Len() {
			return nil, fmt.Errorf("row %d has %d values, schema has %d columns", i, len(rec), schema.Len())
		}
		row := make(types.Row, len(rec))
		for j, cell := range rec {
			v, err := decodeValue(cell, schema.Fields[j].Type)
			if err != nil {
				return nil, fmt.Errorf("row %d column %q: %w", i, schema.Fields[j].Name, err)
			}
			row[j] = v
		}
		rows[i] = row
	}
	return rows, nil
}

// decodeRowsLoose converts JSON rows without a schema (appends — the
// table's own validation catches width mismatches): every JSON number
// becomes a DOUBLE, integral or not, strings STRING, booleans BOOLEAN,
// null NULL.
func decodeRowsLoose(in [][]interface{}) ([]types.Row, error) {
	rows := make([]types.Row, len(in))
	for i, rec := range in {
		row := make(types.Row, len(rec))
		for j, cell := range rec {
			switch c := cell.(type) {
			case nil:
				row[j] = types.Null
			case bool:
				row[j] = types.Bool(c)
			case string:
				row[j] = types.Str(c)
			case float64:
				row[j] = types.Float(c)
			default:
				return nil, fmt.Errorf("row %d column %d: unsupported JSON value %T", i, j, cell)
			}
		}
		rows[i] = row
	}
	return rows, nil
}

func decodeValue(cell interface{}, kind types.Kind) (types.Value, error) {
	if cell == nil {
		return types.Null, nil
	}
	switch kind {
	case types.KindInt:
		f, ok := cell.(float64)
		if !ok || f != float64(int64(f)) {
			return types.Null, fmt.Errorf("expected integral BIGINT, got %v", cell)
		}
		return types.Int(int64(f)), nil
	case types.KindFloat:
		f, ok := cell.(float64)
		if !ok {
			return types.Null, fmt.Errorf("expected DOUBLE, got %T", cell)
		}
		return types.Float(f), nil
	case types.KindString:
		s, ok := cell.(string)
		if !ok {
			return types.Null, fmt.Errorf("expected STRING, got %T", cell)
		}
		return types.Str(s), nil
	case types.KindBool:
		b, ok := cell.(bool)
		if !ok {
			return types.Null, fmt.Errorf("expected BOOLEAN, got %T", cell)
		}
		return types.Bool(b), nil
	}
	return types.Null, fmt.Errorf("unsupported column kind %v", kind)
}

func parseKind(name string) (types.Kind, error) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "BIGINT", "INT", "INTEGER", "LONG":
		return types.KindInt, nil
	case "DOUBLE", "FLOAT", "REAL":
		return types.KindFloat, nil
	case "STRING", "VARCHAR", "TEXT":
		return types.KindString, nil
	case "BOOLEAN", "BOOL":
		return types.KindBool, nil
	}
	return types.KindNull, fmt.Errorf("unknown column type %q (BIGINT, DOUBLE, STRING, BOOLEAN)", name)
}

func encodeMetrics(m *skysql.Metrics) QueryMetrics {
	if m == nil {
		return QueryMetrics{}
	}
	return QueryMetrics{
		Stages:           m.StagesExecuted(),
		RowsShuffled:     m.RowsShuffled(),
		PeakBytes:        m.PeakBytes(),
		CacheHits:        m.CacheHits(),
		CacheMisses:      m.CacheMisses(),
		Morsels:          m.MorselsExecuted(),
		Steals:           m.Steals(),
		TaskRetries:      m.TaskRetries(),
		DegradationSteps: m.DegradationSteps(),
		Degradations:     m.Degradations(),
		SegmentsPruned:   m.SegmentsPruned(),
		SegmentsSpilled:  m.SegmentsSpilled(),
	}
}
