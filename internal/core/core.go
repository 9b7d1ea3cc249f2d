package core

import (
	"fmt"
	"strings"
	"time"

	"redisgraph/internal/cypher"
	"redisgraph/internal/graph"
	"redisgraph/internal/value"
)

// Config controls query execution. Its exported fields are the deployment
// settings an embedder sets; the unexported ones are the differential
// baselines only the in-package tests set.
type Config struct {
	// Timeout aborts queries exceeding this duration (0 = no timeout).
	Timeout time.Duration
	// PlanCache, when set, amortizes parse+plan across requests: queries
	// resolve through the cache's shared templates (see plancache.go) and
	// instantiate their own running ops. Nil plans every query from scratch —
	// the differential baseline behind GRAPH.CONFIG SET PLAN_CACHE_SIZE 0.
	PlanCache *PlanCache

	// batch is the pipeline batch size: the number of records every
	// operation aims to put in each batch, and the number a traversal fuses
	// into one frontier matrix before evaluating the algebraic expression
	// with a single MxM per operand. 0 uses the default (64); 1 is
	// tuple-at-a-time execution (one-row batches and frontiers through the
	// same code), the differential tests' baseline.
	batch int
	// kernel forces the traversal kernel direction where a pull kernel
	// exists (var-length BFS hops and expand-into point probes); the zero
	// value, kernelAuto, picks push or pull per hop. Fixed-length hops
	// always push, in every mode.
	kernel kernelMode
	// noCostPlanner plans MATCH patterns in the exact order they were
	// written, with no stats-driven entry-point choice, hop reordering,
	// traversal-direction decisions or hash joins (a WHERE-bridged
	// component is a cartesian rescan plus a Filter). It is the planner and
	// join differential tests' baseline.
	noCostPlanner bool
	// noPushdown disables algebraic predicate pushdown at plan time: every
	// label and property predicate stays an interpreted per-record filter.
	// It is the pushdown differential tests' baseline.
	noPushdown bool
}

// planOptions is the one mapping from a Config to what the planner reads
// from it — and, since plans differ exactly where these differ, the
// config half of the plan cache's key.
func (c Config) planOptions() planOptions {
	return planOptions{noPushdown: c.noPushdown, noCostPlanner: c.noCostPlanner}
}

// planFor resolves a query to its plan: through the plan cache when the
// config enables one, else by parsing and planning from scratch. cached
// reports whether the plan is a cached template.
func planFor(g *graph.Graph, query string, cfg Config) (plan *Plan, cached bool, err error) {
	if pc := cfg.PlanCache; pc != nil && pc.Capacity() > 0 {
		return pc.plan(g, query, cfg)
	}
	ast, err := cypher.Parse(query)
	if err != nil {
		return nil, false, err
	}
	plan, err = buildLocked(g, ast, cfg.planOptions())
	return plan, false, err
}

// buildLocked plans under the read lock (planning consults the schema and
// the stats snapshot feeding the cost model).
func buildLocked(g *graph.Graph, ast *cypher.Query, opts planOptions) (*Plan, error) {
	g.RLock()
	defer g.RUnlock()
	return buildPlanOpts(g, ast, opts)
}

// Query parses, plans and executes a Cypher query against g, taking the
// graph's write or read lock according to the query's effect.
func Query(g *graph.Graph, query string, params map[string]value.Value, cfg Config) (*ResultSet, error) {
	return runQuery(g, query, params, cfg, false)
}

// ROQuery executes a query that must be read-only (GRAPH.RO_QUERY).
func ROQuery(g *graph.Graph, query string, params map[string]value.Value, cfg Config) (*ResultSet, error) {
	return runQuery(g, query, params, cfg, true)
}

func runQuery(g *graph.Graph, query string, params map[string]value.Value, cfg Config, readOnly bool) (*ResultSet, error) {
	plan, _, err := planFor(g, query, cfg)
	if err != nil {
		return nil, err
	}
	if readOnly && !plan.ReadOnly {
		return nil, fmt.Errorf("core: query is not read-only")
	}
	return executeLocked(g, plan, params, cfg, nil)
}

// executeLocked is the one lock discipline: it runs a plan under the lock
// its effect demands. Read-only plans hold the shared lock. Write plans read
// under the shared lock too (concurrently with RO queries) and upgrade to
// the exclusive lock only for mutation bursts, folding threshold-crossing
// deltas in a final burst.
func executeLocked(g *graph.Graph, plan *Plan, params map[string]value.Value, cfg Config,
	prof map[planNode]*profiledOp) (*ResultSet, error) {
	if plan.ReadOnly {
		g.RLock()
		defer g.RUnlock()
		return execute(g, plan, params, cfg, false, prof)
	}
	g.BeginWrite()
	defer g.EndWrite()
	rs, err := execute(g, plan, params, cfg, true, prof)
	maybeSyncLocked(g)
	return rs, err
}

// maybeSyncLocked folds threshold-crossing deltas from inside a write query
// (the caller rests on the shared lock via BeginWrite). The deferred
// downgrade keeps the lock discipline consistent if a fold panics.
func maybeSyncLocked(g *graph.Graph) {
	if !g.NeedsSync() {
		return
	}
	g.BeginMutation()
	defer g.EndMutation()
	g.MaybeSync()
}

// execute instantiates the plan's running ops and drains them into a result
// set, under the lock the caller took.
func execute(g *graph.Graph, plan *Plan, params map[string]value.Value, cfg Config, concurrent bool,
	prof map[planNode]*profiledOp) (*ResultSet, error) {
	rs := &ResultSet{Columns: plan.columns}
	ctx := &execCtx{
		g:      g,
		params: params,
		stats:  &rs.Stats,
		mut:    mutLocker{g: g, concurrent: concurrent},
		batch:  cfg.batch,
		kernel: cfg.kernel,
	}
	if cfg.Timeout > 0 {
		ctx.deadline = time.Now().Add(cfg.Timeout)
	}
	root := instantiate(plan.root, instOpts{prof: prof})
	start := time.Now()
	for {
		batch, err := root.nextBatch(ctx)
		if err != nil {
			return nil, err
		}
		if batch == nil {
			break
		}
		if ctx.expired() {
			return nil, fmt.Errorf("core: query timed out after %s", cfg.Timeout)
		}
		if plan.columns != nil {
			rs.appendBatch(g, batch, plan.visible)
		}
	}
	rs.Stats.ExecutionTime = time.Since(start)
	return rs, nil
}

// Explain returns the execution-plan tree for a query (GRAPH.EXPLAIN): it
// prints plan nodes and instantiates nothing. Of the config, only the test
// baselines noPushdown and noCostPlanner change the plan. With a plan cache
// configured, the first line reports whether this plan came from a cached
// template and the cache's lifetime counters.
func Explain(g *graph.Graph, query string, cfg Config) ([]string, error) {
	plan, cached, err := planFor(g, query, cfg)
	if err != nil {
		return nil, err
	}
	var lines []string
	if line, ok := planSourceLine(cfg, cached); ok {
		lines = append(lines, line)
	}
	printPlan(plan.root, 0, &lines, planNode.args, plan.estAnnotation)
	return lines, nil
}

// planSourceLine renders the "plan: cached|planned" header for EXPLAIN and
// PROFILE output when a plan cache is configured.
func planSourceLine(cfg Config, cached bool) (string, bool) {
	pc := cfg.PlanCache
	if pc == nil || pc.Capacity() <= 0 {
		return "", false
	}
	src := "planned"
	if cached {
		src = "cached"
	}
	return fmt.Sprintf("plan: %s | %s", src, pc.Counters()), true
}

// estAnnotation renders a node's estimated output cardinality for
// EXPLAIN/PROFILE lines.
func (p *Plan) estAnnotation(n planNode) string {
	e, ok := p.est[n]
	if !ok {
		return ""
	}
	return " | est: " + fmtEst(e) + " rows"
}

// fmtEst formats a cardinality estimate: exact-looking integers for small
// figures, scientific notation once precision stops meaning anything. A
// fractional estimate prints as "<1" — only a true zero (empty label or
// relation) claims the plan produces nothing.
func fmtEst(e float64) string {
	switch {
	case e >= 1e6:
		return fmt.Sprintf("%.2g", e)
	case e > 0 && e < 0.5:
		return "<1"
	default:
		return fmt.Sprintf("%d", int64(e+0.5))
	}
}

// Profile executes the query with per-operation accounting and returns the
// annotated plan tree (GRAPH.PROFILE).
func Profile(g *graph.Graph, query string, params map[string]value.Value, cfg Config) ([]string, error) {
	plan, cached, err := planFor(g, query, cfg)
	if err != nil {
		return nil, err
	}
	prof := map[planNode]*profiledOp{}
	if _, err := executeLocked(g, plan, params, cfg, prof); err != nil {
		return nil, err
	}
	var lines []string
	if line, ok := planSourceLine(cfg, cached); ok {
		lines = append(lines, line)
	}
	printPlan(plan.root, 0, &lines, func(n planNode) string {
		if d, ok := prof[n].inner.(profileDescriber); ok {
			return d.profileArgs()
		}
		return n.args()
	}, func(n planNode) string {
		p := prof[n]
		return plan.estAnnotation(n) + fmt.Sprintf(" | Records produced: %d, Execution time: %.6f ms",
			p.records, float64(p.elapsed.Nanoseconds())/1e6)
	})
	return lines, nil
}

// printPlan renders the node tree, one line per node: name, args(n) and,
// when set, annotate(n).
func printPlan(n planNode, depth int, out *[]string, args, annotate func(planNode) string) {
	line := strings.Repeat("    ", depth) + n.name()
	if a := args(n); a != "" {
		line += " | " + a
	}
	if annotate != nil {
		line += annotate(n)
	}
	*out = append(*out, line)
	for _, c := range n.children() {
		printPlan(c, depth+1, out, args, annotate)
	}
}
