// Package core wires the paper's skyline integration together: it drives a
// SQL string (or a pre-built logical plan) through parser → analyzer →
// optimizer → physical planner → cluster execution, exposes the algorithm
// registry used by the evaluation harness, and generates the plain-SQL
// reference rewriting of skyline queries (paper Listing 4) that serves as
// the baseline in every experiment.
package core

import (
	"fmt"
	"time"

	"skysql/internal/analyzer"
	"skysql/internal/catalog"
	"skysql/internal/cluster"
	"skysql/internal/optimizer"
	"skysql/internal/physical"
	"skysql/internal/plan"
	"skysql/internal/sql"
	"skysql/internal/types"
)

// Engine is a compiled-query factory bound to a catalog.
type Engine struct {
	Catalog   *catalog.Catalog
	analyzer  *analyzer.Analyzer
	optimizer *optimizer.Optimizer
}

// NewEngine creates an engine over the catalog.
func NewEngine(cat *catalog.Catalog) *Engine {
	return &Engine{
		Catalog:   cat,
		analyzer:  analyzer.New(cat),
		optimizer: optimizer.New(),
	}
}

// Compiled is a query after all planning stages.
type Compiled struct {
	Logical   plan.Node         // resolved logical plan
	Optimized plan.Node         // after rule-based optimization
	Physical  physical.Operator // executable operator tree
}

// Schema returns the output schema of the query.
func (c *Compiled) Schema() *types.Schema { return c.Physical.Schema() }

// Explain renders all plan stages: both logical plans, the (stage-fused)
// physical plan, and the exchange-bounded stage DAG the engine executes.
func (c *Compiled) Explain() string {
	return "== Analyzed Logical Plan ==\n" + plan.Format(c.Logical) +
		"== Optimized Logical Plan ==\n" + plan.Format(c.Optimized) +
		"== Physical Plan ==\n" + physical.Format(c.Physical) +
		"== Stages ==\n" + physical.FormatStages(c.Physical)
}

// CompileSQL parses, analyzes, optimizes, and physically plans a query.
func (e *Engine) CompileSQL(query string, opts physical.Options) (*Compiled, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	return e.CompileStmt(stmt, opts)
}

// CompileStmt compiles a parsed statement.
func (e *Engine) CompileStmt(stmt *sql.SelectStmt, opts physical.Options) (*Compiled, error) {
	unresolved, err := plan.Build(stmt)
	if err != nil {
		return nil, err
	}
	return e.CompilePlan(unresolved, opts)
}

// CompilePlan compiles an unresolved logical plan (the DataFrame API entry
// point, which bypasses parsing exactly as the paper's §5.8 describes).
func (e *Engine) CompilePlan(unresolved plan.Node, opts physical.Options) (*Compiled, error) {
	resolved, err := e.analyzer.Analyze(unresolved)
	if err != nil {
		return nil, err
	}
	optimized := e.optimizer.Optimize(resolved)
	phys, err := physical.Plan(optimized, opts)
	if err != nil {
		return nil, err
	}
	return &Compiled{Logical: resolved, Optimized: optimized, Physical: phys}, nil
}

// Result is the outcome of one query execution.
type Result struct {
	Schema *types.Schema
	// Rows is the caller's own copy of the result rows (Gather); nil from
	// ExecuteCtx, which leaves them where the plan's root put them.
	Rows     []types.Row
	Metrics  *cluster.Metrics
	Duration time.Duration

	data *cluster.Dataset
}

// Run executes a compiled query with the given executor count.
func (e *Engine) Run(c *Compiled, executors int) (*Result, error) {
	return e.RunCtx(c, cluster.NewContext(executors))
}

// RunCtx executes a compiled query on a caller-provided context, which
// allows cooperative cancellation (Context.Cancel) and metric inspection.
func (e *Engine) RunCtx(c *Compiled, ctx *cluster.Context) (*Result, error) {
	res, err := e.ExecuteCtx(c, ctx)
	if err != nil {
		return nil, err
	}
	res.Rows = res.Gather()
	return res, nil
}

// ExecuteCtx is RunCtx without the gather, for a caller that may render
// the result (NumRows, AppendRowsJSON) instead of handing its rows out: a
// cache hit then costs no copy of the cached rows.
func (e *Engine) ExecuteCtx(c *Compiled, ctx *cluster.Context) (*Result, error) {
	start := time.Now()
	ds, err := c.Physical.Execute(ctx)
	if err != nil {
		return nil, err
	}
	dur := time.Since(start) + ctx.SimAdjustment()
	if dur < 0 {
		dur = 0
	}
	return &Result{Schema: c.Schema(), Metrics: ctx.Metrics, Duration: dur, data: ds}, nil
}

// NumRows is the result's row count.
func (r *Result) NumRows() int { return r.data.NumRows() }

// Gather returns the result's rows as a slice of the caller's own.
func (r *Result) Gather() []types.Row { return r.data.Gather() }

// AppendRowsJSON appends the result's rows to dst as a JSON array of
// arrays (types.AppendRowsJSON). A result the cache served takes the text
// from its entry when an earlier call left it there, without touching a
// row; otherwise the rows are encoded and the text is left on the entry
// for the next hit. A non-finite DOUBLE fails the call, and leaves
// nothing behind.
func (r *Result) AppendRowsJSON(dst []byte) ([]byte, error) {
	enc := r.data.Encoding
	if enc != nil {
		if b := enc.Bytes(); b != nil {
			return append(dst, b...), nil
		}
	}
	start := len(dst)
	dst, err := types.AppendRowsJSON(dst, r.data.Rows())
	if err == nil && enc != nil {
		enc.Attach(dst[start:])
	}
	return dst, err
}

// Query compiles and runs a SQL string in one call.
func (e *Engine) Query(query string, executors int, opts physical.Options) (*Result, error) {
	c, err := e.CompileSQL(query, opts)
	if err != nil {
		return nil, err
	}
	return e.Run(c, executors)
}

// Algorithm names the four algorithms of the paper's evaluation (§6.3)
// plus the §7 extensions, and maps them onto planner strategies.
type Algorithm struct {
	// Name as used in the paper's charts.
	Name string
	// Strategy for the integrated skyline operator; ignored when Reference
	// is true.
	Strategy physical.SkylineStrategy
	// Reference marks the plain-SQL rewrite baseline: the query is not
	// executed through the skyline operator at all but rewritten per
	// Listing 4.
	Reference bool
}

// Algorithms returns the evaluation algorithms in the paper's order.
func Algorithms() []Algorithm {
	return []Algorithm{
		{Name: "distributed complete", Strategy: physical.SkylineDistributedComplete},
		{Name: "non-distributed complete", Strategy: physical.SkylineNonDistributedComplete},
		{Name: "distributed incomplete", Strategy: physical.SkylineDistributedIncomplete},
		{Name: "reference", Reference: true},
	}
}

// ExtensionAlgorithms returns the future-work algorithms (§7) used by the
// ablation benchmarks.
func ExtensionAlgorithms() []Algorithm {
	return []Algorithm{
		{Name: "sfs", Strategy: physical.SkylineSFS},
		{Name: "divide-and-conquer", Strategy: physical.SkylineDivideAndConquer},
		{Name: "grid complete", Strategy: physical.SkylineGridComplete},
		{Name: "angle complete", Strategy: physical.SkylineAngleComplete},
		{Name: "zorder complete", Strategy: physical.SkylineZorderComplete},
		{Name: "cost-based", Strategy: physical.SkylineCostBased},
	}
}

// AlgorithmByName finds an algorithm by its chart name.
func AlgorithmByName(name string) (Algorithm, error) {
	for _, a := range append(Algorithms(), ExtensionAlgorithms()...) {
		if a.Name == name {
			return a, nil
		}
	}
	return Algorithm{}, fmt.Errorf("core: unknown algorithm %q", name)
}
