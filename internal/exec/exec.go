// Package exec runs physical plans produced by the optimizer against the
// relational tables and the external text service. It also provides a
// naive whole-query evaluator used as the correctness oracle in tests.
package exec

import (
	"context"
	"fmt"
	"time"

	"textjoin/internal/join"
	"textjoin/internal/obs"
	"textjoin/internal/plan"
	"textjoin/internal/relation"
	"textjoin/internal/sqlparse"
	"textjoin/internal/texservice"
	"textjoin/internal/vec"
)

// Executor evaluates plan trees. Svc serves every text source; when a
// query spans several sources with distinct backends, Services maps each
// source name to its own service (falling back to Svc for absent names).
// Relational subtrees (scans, joins, projections) run as column-oriented
// batch pipelines (internal/vec); the zero value is ready to use.
type Executor struct {
	Cat      *sqlparse.Catalog
	Svc      texservice.Service
	Services map[string]texservice.Service
}

// svcFor resolves the service for a text source.
func (e *Executor) svcFor(source string) (texservice.Service, error) {
	if s, ok := e.Services[source]; ok {
		return s, nil
	}
	if e.Svc != nil {
		return e.Svc, nil
	}
	return nil, fmt.Errorf("exec: no service for text source %q", source)
}

// RunStats aggregates execution-wide statistics.
type RunStats struct {
	// Usage is the total text-service resource consumption of the whole
	// run, summed over every service involved.
	Usage texservice.Usage
	// Probes counts probe round trips from Probe nodes and probe-based
	// foreign-join methods (a batched search covering many bindings is
	// one round trip).
	Probes int
	// BatchRounds is how many of those round trips were batched
	// (multi-binding) — zero under per-tuple probing.
	BatchRounds int
	// Batches counts the column batches the relational operators emitted
	// over the whole run.
	Batches int
	// Partial reports that a foreign join or probe consumed a search
	// answer known to be incomplete (join.Stats.Partial), so the result
	// may be missing rows.
	Partial bool
}

// runState is one run's mutable state: the statistics Run returns and the
// arena its foreign joins' relational inputs are materialized into.
type runState struct {
	RunStats
	mem vec.Arena
}

// Run evaluates the plan and returns the result table along with the
// text-service usage it caused. Usage is accounted through a per-query
// meter carried in the context (texservice.WithQueryMeter): every charge
// the run causes on the shared services' meters is mirrored there, so the
// measurement is exact even when other queries hammer the same services
// concurrently — a before/after snapshot of the shared meters would bill
// this run for everyone's interleaved work. If the caller has not
// installed a query meter, Run installs a fresh one for the duration.
//
// The relational input of every TextJoin and Probe lives in the run's
// arena, recycled when Run returns; the result, like every join's output,
// is on the heap and never aliases it.
func (e *Executor) Run(ctx context.Context, n plan.Node) (*relation.Table, RunStats, error) {
	qm := texservice.QueryMeterFrom(ctx)
	if qm == nil {
		qm = texservice.NewMeter(texservice.DefaultCosts())
		ctx = texservice.WithQueryMeter(ctx, qm)
	}
	before := qm.Snapshot()
	st := &runState{}
	defer st.mem.Release()
	out, err := e.eval(ctx, n, st, nil)
	if err != nil {
		return nil, RunStats{}, err
	}
	st.Usage = qm.Snapshot().Sub(before)
	return out, st.RunStats, nil
}

// eval evaluates one node, wrapping evalNode with the per-node
// instrumentation: a span named "exec.<op>" and, when the context
// carries an Analysis, a before/after query-meter snapshot that yields
// the node's cumulative actual usage for EXPLAIN ANALYZE. With neither a
// recorder nor an analysis attached, it falls through to evalNode after
// two context lookups — the zero-overhead path. A relational subtree's
// result is materialized into mem (nil: the heap).
func (e *Executor) eval(ctx context.Context, n plan.Node, st *runState, mem *vec.Arena) (*relation.Table, error) {
	an := AnalysisFrom(ctx)
	if an == nil && obs.SpanFrom(ctx) == nil {
		return e.evalNode(ctx, n, st, mem)
	}
	sctx, sp := obs.StartSpan(ctx, "exec."+opName(n))
	qm := texservice.QueryMeterFrom(sctx)
	var before texservice.Usage
	if qm != nil {
		before = qm.Snapshot()
	}
	probesBefore, roundsBefore := st.Probes, st.BatchRounds
	start := time.Now()
	out, err := e.evalNode(sctx, n, st, mem)
	elapsed := time.Since(start)
	var usage texservice.Usage
	if qm != nil {
		usage = qm.Snapshot().Sub(before)
	}
	rows := 0
	if out != nil {
		rows = out.Cardinality()
	}
	if sp != nil {
		sp.SetAttr(obs.Str("op", n.Describe()),
			obs.F64("est_card", n.Card()), obs.F64("est_cost", n.Cost()),
			obs.Int("rows", rows), obs.F64("text_cost", usage.Cost))
		if err != nil {
			// Error traces are always retained by the trace store's tail
			// sampler; mark the operator that failed so the retained tree
			// pinpoints it.
			sp.SetAttr(obs.Str("err", err.Error()))
		}
		sp.End()
	}
	if an != nil && err == nil {
		an.record(n, NodeActual{Rows: rows, Elapsed: elapsed, Usage: usage,
			Probes: st.Probes - probesBefore, BatchRounds: st.BatchRounds - roundsBefore})
	}
	return out, err
}

// opName names a node's span.
func opName(n plan.Node) string {
	switch n := n.(type) {
	case *plan.Scan:
		return "scan"
	case *plan.Probe:
		return "probe"
	case *plan.Join:
		return "join"
	case *plan.TextJoin:
		return fmt.Sprintf("textjoin.%v", n.Method)
	case *plan.Project:
		return "project"
	default:
		return fmt.Sprintf("%T", n)
	}
}

func (e *Executor) evalNode(ctx context.Context, n plan.Node, st *runState, mem *vec.Arena) (*relation.Table, error) {
	switch n := n.(type) {
	case *plan.Scan, *plan.Join, *plan.Project:
		return e.evalVec(ctx, n, st, mem)
	case *plan.Probe:
		return e.evalProbe(ctx, n, st)
	case *plan.TextJoin:
		return e.evalTextJoin(ctx, n, st)
	default:
		return nil, fmt.Errorf("exec: unknown plan node %T", n)
	}
}

func (e *Executor) evalProbe(ctx context.Context, n *plan.Probe, st *runState) (*relation.Table, error) {
	in, err := e.eval(ctx, n.Input, st, &st.mem)
	if err != nil {
		return nil, err
	}
	svc, err := e.svcFor(n.Source)
	if err != nil {
		return nil, err
	}
	spec := &join.Spec{
		Relation: in,
		Preds:    toJoinPreds(n.Preds),
		TextSel:  n.TextSel,
	}
	cols := probeColumns(n.Preds)
	out, stats, err := join.ProbeReduce(ctx, spec, cols, svc, n.Batched)
	if err != nil {
		return nil, err
	}
	st.Probes += stats.Probes
	st.BatchRounds += stats.BatchRounds
	st.Partial = st.Partial || stats.Partial
	return out, nil
}

func (e *Executor) evalTextJoin(ctx context.Context, n *plan.TextJoin, st *runState) (*relation.Table, error) {
	in, err := e.eval(ctx, n.Input, st, &st.mem)
	if err != nil {
		return nil, err
	}
	spec := &join.Spec{
		Relation:  in,
		Preds:     toJoinPreds(n.Preds),
		TextSel:   n.TextSel,
		LongForm:  n.LongForm,
		DocFields: n.DocFields,
	}
	method, err := join.For(n.Method, n.ProbeColumns)
	if err != nil {
		return nil, err
	}
	svc, err := e.svcFor(n.Source)
	if err != nil {
		return nil, err
	}
	res, err := method.Execute(ctx, spec, svc)
	if err != nil {
		return nil, err
	}
	st.Probes += res.Stats.Probes
	st.BatchRounds += res.Stats.BatchRounds
	st.Partial = st.Partial || res.Stats.Partial
	return qualifyDocColumns(res.Table, in.Schema.Arity(), n.Source, n.DocFields), nil
}

// toJoinPreds converts classified foreign predicates to the join package's
// form.
func toJoinPreds(preds []sqlparse.ForeignPred) []join.Pred {
	out := make([]join.Pred, len(preds))
	for i, f := range preds {
		out[i] = join.Pred{Column: f.Column, Field: f.Field}
	}
	return out
}

// probeColumns returns the distinct relation columns of the predicates.
func probeColumns(preds []sqlparse.ForeignPred) []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range preds {
		if !seen[f.Column] {
			seen[f.Column] = true
			out = append(out, f.Column)
		}
	}
	return out
}

// qualifyDocColumns renames the document columns a foreign join appends
// (docid and the requested fields) to "<source>.<name>", leaving the
// relational columns untouched.
func qualifyDocColumns(t *relation.Table, relArity int, source string, docFields []string) *relation.Table {
	cols := append([]relation.Column(nil), t.Schema.Cols...)
	cols[relArity] = relation.Column{Name: source + "." + join.DocIDColumn, Kind: cols[relArity].Kind}
	for i, f := range docFields {
		idx := relArity + 1 + i
		cols[idx] = relation.Column{Name: source + "." + f, Kind: cols[idx].Kind}
	}
	return &relation.Table{Name: t.Name, Schema: &relation.Schema{Cols: cols}, Rows: t.Rows}
}
