package exec

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"textjoin/internal/plan"
	"textjoin/internal/texservice"
)

// This file implements EXPLAIN ANALYZE: when an Analysis is carried in
// the run's context, the executor records per-plan-node actuals (rows,
// wall-clock time, text-service usage) alongside the optimizer's
// estimates already stored on each node.
//
// Actual usage is measured as a before/after snapshot of the per-query
// meter around each node's evaluation. The query meter only ever sees
// this query's mirrored charges, so the measurement is exact under
// concurrency; and because a node's evaluation includes its children,
// the actual is cumulative over the subtree — the same semantics as
// plan.Est.EstCost, which makes estimate and actual directly comparable
// at every node.

// NodeActual is what execution actually did at (the subtree rooted at)
// one plan node.
type NodeActual struct {
	Rows    int
	Elapsed time.Duration
	Usage   texservice.Usage
	// Probes is the number of probe round trips this subtree issued;
	// BatchRounds how many of those were batched (multi-binding).
	Probes      int
	BatchRounds int
	// Batches is the number of column batches this node emitted (for a
	// Probe or TextJoin: the batches that fed its result to the enclosing
	// pipeline).
	Batches int
}

// Analysis collects per-node actuals for one run. Create with
// NewAnalysis, attach with WithAnalysis, and read back with Tree after
// the run. Safe for concurrent recording.
type Analysis struct {
	mu    sync.Mutex
	nodes map[plan.Node]NodeActual
}

// NewAnalysis returns an empty analysis.
func NewAnalysis() *Analysis {
	return &Analysis{nodes: map[plan.Node]NodeActual{}}
}

type analysisKey struct{}

// WithAnalysis attaches an analysis to the context; the executor records
// into it. A nil analysis returns ctx unchanged.
func WithAnalysis(ctx context.Context, a *Analysis) context.Context {
	if a == nil {
		return ctx
	}
	return context.WithValue(ctx, analysisKey{}, a)
}

// AnalysisFrom returns the context's analysis, or nil.
func AnalysisFrom(ctx context.Context) *Analysis {
	a, _ := ctx.Value(analysisKey{}).(*Analysis)
	return a
}

// record stores one node's actuals. A node can be recorded twice — once
// by its batch operator wrapper (which knows the batch count) and once by
// Executor.eval at the subtree root (which does not): the batch count of
// the earlier record is preserved.
func (a *Analysis) record(n plan.Node, act NodeActual) {
	a.mu.Lock()
	if prev, ok := a.nodes[n]; ok && act.Batches == 0 {
		act.Batches = prev.Batches
	}
	a.nodes[n] = act
	a.mu.Unlock()
}

// addBatches merges a batch count into a node's existing record without
// touching its other actuals (used for pipeline-boundary nodes whose
// rows/time/usage were recorded by Executor.eval).
func (a *Analysis) addBatches(n plan.Node, batches int) {
	a.mu.Lock()
	act := a.nodes[n]
	act.Batches += batches
	a.nodes[n] = act
	a.mu.Unlock()
}

// Actual returns the recorded actuals for a node.
func (a *Analysis) Actual(n plan.Node) (NodeActual, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	act, ok := a.nodes[n]
	return act, ok
}

// AnalyzeNode is one operator of an EXPLAIN ANALYZE tree: the node's
// description, the optimizer's estimates, and execution's actuals. Both
// cost columns are cumulative over the subtree. It is the JSON shape the
// queryd /analyze endpoint serves.
type AnalyzeNode struct {
	Op        string           `json:"op"`
	EstCard   float64          `json:"est_card"`
	EstCost   float64          `json:"est_cost"`
	ActRows   int              `json:"act_rows"`
	ActCost   float64          `json:"act_cost"`
	ActTimeNs int64            `json:"act_time_ns"`
	ActUsage  texservice.Usage `json:"act_usage"`
	// ActProbes/ActBatchRounds attribute probe round trips to the
	// subtree: how many probe searches it issued and how many of those
	// were batched multi-binding rounds.
	ActProbes      int `json:"act_probes"`
	ActBatchRounds int `json:"act_batch_rounds"`
	// ActBatches is the number of column batches the node emitted.
	ActBatches int            `json:"act_batches,omitempty"`
	Children   []*AnalyzeNode `json:"children,omitempty"`
}

// Tree combines the plan's estimates with the recorded actuals into an
// AnalyzeNode tree mirroring the plan's shape.
func (a *Analysis) Tree(root plan.Node) *AnalyzeNode {
	if root == nil {
		return nil
	}
	act, _ := a.Actual(root)
	out := &AnalyzeNode{
		Op:        root.Describe(),
		EstCard:   root.Card(),
		EstCost:   root.Cost(),
		ActRows:   act.Rows,
		ActCost:   act.Usage.Cost,
		ActTimeNs: act.Elapsed.Nanoseconds(),
		ActUsage:  act.Usage,

		ActProbes:      act.Probes,
		ActBatchRounds: act.BatchRounds,
		ActBatches:     act.Batches,
	}
	for _, c := range root.Children() {
		out.Children = append(out.Children, a.Tree(c))
	}
	return out
}

// FormatAnalyze renders the EXPLAIN ANALYZE tree as aligned text: the
// operator column is padded to a common width so the estimate and actual
// columns line up, estimated cost and actual cost side by side on every
// line.
func FormatAnalyze(w io.Writer, root *AnalyzeNode) {
	if root == nil {
		return
	}
	type line struct {
		op   string
		node *AnalyzeNode
	}
	var lines []line
	var collect func(n *AnalyzeNode, depth int)
	collect = func(n *AnalyzeNode, depth int) {
		lines = append(lines, line{op: strings.Repeat("  ", depth) + n.Op, node: n})
		for _, c := range n.Children {
			collect(c, depth+1)
		}
	}
	collect(root, 0)
	width := 0
	for _, l := range lines {
		if len(l.op) > width {
			width = len(l.op)
		}
	}
	for _, l := range lines {
		n := l.node
		fmt.Fprintf(w, "%-*s  est: card=%-8.1f cost=%-10.2f  act: rows=%-6d cost=%-10.2f time=%s",
			width, l.op, n.EstCard, n.EstCost, n.ActRows, n.ActCost,
			time.Duration(n.ActTimeNs).Round(time.Microsecond))
		if n.ActProbes > 0 {
			fmt.Fprintf(w, " probes=%d", n.ActProbes)
			if n.ActBatchRounds > 0 {
				fmt.Fprintf(w, " batch_rounds=%d", n.ActBatchRounds)
			}
		}
		if n.ActBatches > 0 {
			fmt.Fprintf(w, " batches=%d avg_rows=%.0f", n.ActBatches,
				float64(n.ActRows)/float64(n.ActBatches))
		}
		fmt.Fprintln(w)
	}
}
