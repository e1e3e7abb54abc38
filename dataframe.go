package skysql

import (
	"context"
	"errors"
	"fmt"
	"time"

	"skysql/internal/core"
	"skysql/internal/expr"
	"skysql/internal/plan"
	"skysql/internal/sql"
	"skysql/internal/types"
)

// DataFrame is a lazily evaluated query. It is produced either from a SQL
// string (Session.SQL) or built fluently from Session.Table; nothing
// executes until Collect (or Count) is called. DataFrame-built plans skip
// the parser and feed the logical plan directly to the analyzer, exactly
// as the paper's DataFrame API does (§5.8).
type DataFrame struct {
	sess     *Session
	logical  plan.Node      // plan under construction (builder path)
	compiled *core.Compiled // compiled form (SQL path, or after compile())
	err      error          // first deferred builder error

	metrics  *Metrics
	duration time.Duration
}

// Table starts a DataFrame over a catalog table.
func (s *Session) Table(name string) *DataFrame {
	return &DataFrame{sess: s, logical: &plan.UnresolvedRelation{Name: name}}
}

// fail returns a DataFrame frozen on err.
func (df *DataFrame) fail(err error) *DataFrame {
	return &DataFrame{sess: df.sess, err: err}
}

// with returns a DataFrame with a new plan root.
func (df *DataFrame) with(n plan.Node) *DataFrame {
	return &DataFrame{sess: df.sess, logical: n}
}

func (df *DataFrame) builderReady() error {
	if df.err != nil {
		return df.err
	}
	if df.logical == nil {
		return fmt.Errorf("skysql: DataFrame built from SQL cannot be extended; use SQL composition instead")
	}
	return nil
}

// Select projects the given expressions (column names or SQL fragments,
// e.g. "price", "ifnull(length, 0) AS len").
func (df *DataFrame) Select(items ...string) *DataFrame {
	if err := df.builderReady(); err != nil {
		return df.fail(err)
	}
	exprs := make([]expr.Expr, len(items))
	for i, it := range items {
		e, err := parseSelectItem(it)
		if err != nil {
			return df.fail(err)
		}
		exprs[i] = e
	}
	return df.with(plan.NewProject(exprs, df.logical))
}

// parseSelectItem parses an item, accepting "expr AS alias".
func parseSelectItem(src string) (expr.Expr, error) {
	stmt, err := sql.Parse("SELECT " + src)
	if err != nil {
		return nil, err
	}
	if len(stmt.Items) != 1 {
		return nil, fmt.Errorf("skysql: expected a single projection item in %q", src)
	}
	return stmt.Items[0], nil
}

// Filter keeps rows satisfying the SQL predicate fragment.
func (df *DataFrame) Filter(cond string) *DataFrame {
	if err := df.builderReady(); err != nil {
		return df.fail(err)
	}
	e, err := sql.ParseExpr(cond)
	if err != nil {
		return df.fail(err)
	}
	return df.with(plan.NewFilter(e, df.logical))
}

// Where is an alias for Filter.
func (df *DataFrame) Where(cond string) *DataFrame { return df.Filter(cond) }

// SkylineDim is one skyline dimension for the DataFrame API, created with
// Smin, Smax, or Sdiff — the engine-side equivalents of the paper's
// smin()/smax()/sdiff() column functions (§5.8).
type SkylineDim struct {
	src string
	dir expr.SkylineDir
}

// Smin marks a minimized skyline dimension.
func Smin(col string) SkylineDim { return SkylineDim{src: col, dir: expr.SkyMin} }

// Smax marks a maximized skyline dimension.
func Smax(col string) SkylineDim { return SkylineDim{src: col, dir: expr.SkyMax} }

// Sdiff marks a DIFF skyline dimension (grouping: only tuples with equal
// values compete).
func Sdiff(col string) SkylineDim { return SkylineDim{src: col, dir: expr.SkyDiff} }

// SkylineOpt configures the skyline operator.
type SkylineOpt func(*skylineCfg)

type skylineCfg struct {
	distinct bool
	complete bool
}

// SkylineDistinct keeps a single tuple per distinct dimension vector.
func SkylineDistinct() SkylineOpt { return func(c *skylineCfg) { c.distinct = true } }

// SkylineComplete asserts the input has no NULLs in the skyline
// dimensions, forcing the faster complete algorithms (the DataFrame form
// of the paper's COMPLETE keyword).
func SkylineComplete() SkylineOpt { return func(c *skylineCfg) { c.complete = true } }

// Skyline appends the skyline operator with the given dimensions.
func (df *DataFrame) Skyline(dims []SkylineDim, opts ...SkylineOpt) *DataFrame {
	if err := df.builderReady(); err != nil {
		return df.fail(err)
	}
	if len(dims) == 0 {
		return df.fail(fmt.Errorf("skysql: Skyline requires at least one dimension"))
	}
	var cfg skylineCfg
	for _, o := range opts {
		o(&cfg)
	}
	sdims := make([]*expr.SkylineDimension, len(dims))
	for i, d := range dims {
		e, err := sql.ParseExpr(d.src)
		if err != nil {
			return df.fail(err)
		}
		sdims[i] = expr.NewSkylineDimension(e, d.dir)
	}
	return df.with(plan.NewSkylineOperator(cfg.distinct, cfg.complete, sdims, df.logical))
}

// GroupedData is a DataFrame with pending grouping.
type GroupedData struct {
	df     *DataFrame
	groups []expr.Expr
	err    error
}

// GroupBy starts an aggregation over the given grouping expressions.
func (df *DataFrame) GroupBy(cols ...string) *GroupedData {
	if err := df.builderReady(); err != nil {
		return &GroupedData{err: err, df: df}
	}
	groups := make([]expr.Expr, len(cols))
	for i, c := range cols {
		e, err := sql.ParseExpr(c)
		if err != nil {
			return &GroupedData{err: err, df: df}
		}
		groups[i] = e
	}
	return &GroupedData{df: df, groups: groups}
}

// Agg finishes the aggregation; items are output expressions such as
// "user_rating", "count(*) AS n", "min(price) AS cheapest".
func (g *GroupedData) Agg(items ...string) *DataFrame {
	if g.err != nil {
		return g.df.fail(g.err)
	}
	outputs := make([]expr.Expr, len(items))
	for i, it := range items {
		e, err := parseSelectItem(it)
		if err != nil {
			return g.df.fail(err)
		}
		outputs[i] = e
	}
	return g.df.with(plan.NewAggregate(g.groups, outputs, g.df.logical))
}

// Join joins with another builder DataFrame. how is one of "inner",
// "left", "right", "cross"; on is a SQL predicate fragment (empty for
// cross joins).
func (df *DataFrame) Join(other *DataFrame, how, on string) *DataFrame {
	if err := df.builderReady(); err != nil {
		return df.fail(err)
	}
	if err := other.builderReady(); err != nil {
		return df.fail(err)
	}
	var jt plan.JoinType
	switch how {
	case "inner":
		jt = plan.InnerJoin
	case "left":
		jt = plan.LeftOuterJoin
	case "right":
		jt = plan.RightOuterJoin
	case "cross":
		jt = plan.CrossJoin
	default:
		return df.fail(fmt.Errorf("skysql: unknown join type %q", how))
	}
	var cond expr.Expr
	if on != "" {
		e, err := sql.ParseExpr(on)
		if err != nil {
			return df.fail(err)
		}
		cond = e
	} else if jt != plan.CrossJoin {
		return df.fail(fmt.Errorf("skysql: %s join requires an ON predicate", how))
	}
	return df.with(plan.NewJoin(jt, df.logical, other.logical, cond))
}

// Alias names the DataFrame as a derived table so its columns can be
// referenced with a qualifier after joins.
func (df *DataFrame) Alias(name string) *DataFrame {
	if err := df.builderReady(); err != nil {
		return df.fail(err)
	}
	return df.with(plan.NewSubqueryAlias(name, df.logical))
}

// OrderBy appends a sort key (ascending).
func (df *DataFrame) OrderBy(col string) *DataFrame { return df.orderBy(col, false) }

// OrderByDesc appends a descending sort key.
func (df *DataFrame) OrderByDesc(col string) *DataFrame { return df.orderBy(col, true) }

func (df *DataFrame) orderBy(col string, desc bool) *DataFrame {
	if err := df.builderReady(); err != nil {
		return df.fail(err)
	}
	e, err := sql.ParseExpr(col)
	if err != nil {
		return df.fail(err)
	}
	order := plan.SortOrder{E: e, Desc: desc}
	// Merge into an existing Sort so chained OrderBy calls build one node.
	if s, ok := df.logical.(*plan.Sort); ok {
		return df.with(plan.NewSort(append(append([]plan.SortOrder(nil), s.Orders...), order), s.Child))
	}
	return df.with(plan.NewSort([]plan.SortOrder{order}, df.logical))
}

// Limit keeps the first n rows.
func (df *DataFrame) Limit(n int64) *DataFrame {
	if err := df.builderReady(); err != nil {
		return df.fail(err)
	}
	return df.with(plan.NewLimit(n, df.logical))
}

// Distinct removes duplicate rows.
func (df *DataFrame) Distinct() *DataFrame {
	if err := df.builderReady(); err != nil {
		return df.fail(err)
	}
	return df.with(plan.NewDistinct(df.logical))
}

// compile materializes the compiled form.
func (df *DataFrame) compile() error {
	if df.err != nil {
		return df.err
	}
	if df.compiled != nil {
		return nil
	}
	c, err := df.sess.engine.CompilePlan(df.logical, df.sess.options())
	if err != nil {
		return err
	}
	df.compiled = c
	return nil
}

// Collect executes the query and returns all rows.
func (df *DataFrame) Collect() ([]Row, error) {
	return df.CollectContext(context.Background())
}

// CollectContext is Collect under a Go context: cancellation or a deadline
// on ctx cooperatively cancels the run (workers observe it between
// morsels) and surfaces an error wrapping both the context's error and
// cluster.ErrCanceled. WithQueryTimeout adds a session-wide deadline on
// top.
func (df *DataFrame) CollectContext(ctx context.Context) ([]Row, error) {
	res, err := df.collect(ctx)
	if err != nil {
		return nil, err
	}
	return res.Gather(), nil
}

// CollectJSON is CollectContext for a caller that wants the rows as text:
// it appends them to dst as a JSON array of arrays — one array per row,
// NULL as null, BIGINT and DOUBLE as numbers, byte for byte what
// encoding/json writes for the same values — and returns the extended
// slice and the row count. When the session's result cache answers the
// query, the text comes from the cache entry too: the first call that
// encodes an entry's rows leaves the bytes on it (inside the cache's byte
// budget, shed before anything else under pressure), and later hits copy
// them without touching a row. An append the cache absorbs on the
// columnar kernel rebuilds the text from the old one, encoding only the
// appended rows that survive; any other change to the entry drops it, and
// the next call encodes again. JSON has no NaN or ±Inf: a result holding
// one fails with an error naming the row and column, dst is returned as
// it came, and nothing is cached.
func (df *DataFrame) CollectJSON(ctx context.Context, dst []byte) ([]byte, int, error) {
	res, err := df.collect(ctx)
	if err != nil {
		return dst, 0, err
	}
	out, err := res.AppendRowsJSON(dst)
	if err != nil {
		var cell *types.NonFiniteError
		if errors.As(err, &cell) {
			err = fmt.Errorf("skysql: result column %q: %w", res.Schema.Fields[cell.Col].Name, err)
		}
		return dst, 0, err
	}
	return out, res.NumRows(), nil
}

// collect compiles and executes the query, recording the run's metrics
// and duration on the DataFrame. The result is not gathered yet.
func (df *DataFrame) collect(ctx context.Context) (*core.Result, error) {
	if err := df.compile(); err != nil {
		return nil, err
	}
	res, err := df.sess.runCtx(ctx, df.compiled)
	if err != nil {
		return nil, err
	}
	df.metrics = res.Metrics
	df.duration = res.Duration
	return res, nil
}

// Count executes the query and returns the row count.
func (df *DataFrame) Count() (int, error) {
	rows, err := df.Collect()
	if err != nil {
		return 0, err
	}
	return len(rows), nil
}

// Schema compiles the query and returns its output schema.
func (df *DataFrame) Schema() (*Schema, error) {
	if err := df.compile(); err != nil {
		return nil, err
	}
	return df.compiled.Schema(), nil
}

// Explain compiles the query and renders all plan stages. After a Collect
// it additionally appends that run's Metrics.Report — the per-stage
// makespans first, so the dominating stage of the query is visible next to
// the stage DAG.
func (df *DataFrame) Explain() (string, error) {
	if err := df.compile(); err != nil {
		return "", err
	}
	return df.compiled.Explain() + df.metrics.Report(), nil
}

// Metrics returns the execution counters of the last Collect (nil before
// the first execution).
func (df *DataFrame) Metrics() *Metrics { return df.metrics }

// Duration returns the wall-clock time of the last Collect.
func (df *DataFrame) Duration() time.Duration { return df.duration }
