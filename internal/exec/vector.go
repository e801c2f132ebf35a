package exec

import (
	"context"
	"fmt"
	"time"

	"textjoin/internal/plan"
	"textjoin/internal/relation"
	"textjoin/internal/texservice"
	"textjoin/internal/vec"
)

// This file is the relational execution path: every maximal relational
// subtree (Scan/Join/Project chains) runs as a pipeline of batch operators
// from internal/vec. Probe and TextJoin nodes are evaluated a table at a
// time — they talk to the text service tuple-wise by nature — and act as
// pipeline boundaries: their result feeds the enclosing batch pipeline
// through a TableScan, and their own relational inputs re-enter the batch
// path recursively and are materialized into the run's arena.
//
// EXPLAIN ANALYZE semantics: each relational operator is wrapped so that,
// at end of stream, it records cumulative actuals for its subtree (rows,
// batches, wall time from operator construction, query-meter usage delta)
// — the same cumulative-per-subtree semantics as the boundary nodes, so
// estimate and actual stay directly comparable per node.

// evalVec evaluates a relational subtree with batch operators and
// materializes the result back to a row table, in mem, at the subtree root.
func (e *Executor) evalVec(ctx context.Context, n plan.Node, st *runState, mem *vec.Arena) (*relation.Table, error) {
	op, err := e.buildVecOp(ctx, n, st)
	if err != nil {
		return nil, err
	}
	return vec.Materialize(vecTableName(n), op, mem)
}

// vecTableName names the materialized result of a vectorized subtree.
func vecTableName(n plan.Node) string {
	if s, ok := n.(*plan.Scan); ok {
		return s.Table
	}
	return "vec"
}

// buildVecOp translates a plan subtree into a batch operator tree. Nodes
// outside the relational core (Probe, TextJoin) are evaluated through
// Executor.eval — with their full instrumentation — and re-enter the
// pipeline as a scan of their materialized result.
func (e *Executor) buildVecOp(ctx context.Context, n plan.Node, st *runState) (vec.Operator, error) {
	an := AnalysisFrom(ctx)
	// Cumulative-actuals baseline: taken before children are built, so
	// eagerly evaluated boundary descendants (probes, text joins) are
	// charged to this subtree.
	var w *vecInstrument
	if an != nil {
		w = &vecInstrument{n: n, an: an, st: st, start: time.Now(),
			probesBefore: st.Probes, roundsBefore: st.BatchRounds}
		if qm := texservice.QueryMeterFrom(ctx); qm != nil {
			w.qm = qm
			w.usageBefore = qm.Snapshot()
		}
	}
	var op vec.Operator
	switch n := n.(type) {
	case *plan.Scan:
		base, ok := e.Cat.Tables[n.Table]
		if !ok {
			return nil, fmt.Errorf("exec: unknown table %q", n.Table)
		}
		pred := n.Pred
		if _, isTrue := pred.(relation.True); isTrue {
			pred = nil
		}
		var err error
		op, err = vec.NewTableScan(base.Qualified(), n.Cols, pred)
		if err != nil {
			return nil, err
		}
	case *plan.Join:
		left, err := e.buildVecOp(ctx, n.Left, st)
		if err != nil {
			return nil, err
		}
		right, err := e.buildVecOp(ctx, n.Right, st)
		if err != nil {
			return nil, err
		}
		if len(n.Equi) > 0 {
			op, err = vec.NewHashJoin(left, right, n.Equi, n.Residual)
		} else {
			op, err = vec.NewNestedLoop(left, right, n.Residual)
		}
		if err != nil {
			return nil, err
		}
	case *plan.Project:
		in, err := e.buildVecOp(ctx, n.Input, st)
		if err != nil {
			return nil, err
		}
		op, err = vec.NewProject(in, n.Columns)
		if err != nil {
			return nil, err
		}
	default:
		// Pipeline boundary: evaluate the node a table at a time (recording
		// its own actuals), then stream its materialized result.
		tbl, err := e.eval(ctx, n, st, nil)
		if err != nil {
			return nil, err
		}
		scan, err := vec.NewTableScan(tbl, nil, nil)
		if err != nil {
			return nil, err
		}
		// The boundary's own record already has rows/time/usage; merge in
		// only the batch count of feeding it to the pipeline.
		return &boundaryCounter{Operator: scan, n: n, an: an, st: st}, nil
	}
	if w == nil {
		return &batchCounter{Operator: op, st: st}, nil
	}
	w.Operator = op
	return w, nil
}

// batchCounter counts emitted batches into RunStats when no analysis is
// attached — the light wrapper for the zero-overhead path.
type batchCounter struct {
	vec.Operator
	st *runState
}

func (c *batchCounter) Next() (*vec.Batch, error) {
	b, err := c.Operator.Next()
	if b != nil {
		c.st.Batches++
	}
	return b, err
}

// boundaryCounter attributes the batches that feed a boundary node's
// result into the pipeline to that node's analysis entry.
type boundaryCounter struct {
	vec.Operator
	n       plan.Node
	an      *Analysis
	st      *runState
	batches int
	done    bool
}

func (c *boundaryCounter) Next() (*vec.Batch, error) {
	b, err := c.Operator.Next()
	if err != nil {
		return nil, err
	}
	if b != nil {
		c.batches++
		c.st.Batches++
		return b, nil
	}
	if !c.done {
		c.done = true
		if c.an != nil {
			c.an.addBatches(c.n, c.batches)
		}
	}
	return nil, nil
}

// vecInstrument records cumulative per-subtree actuals for one relational
// operator at end of stream: live rows and batches emitted, wall time
// since operator construction, and the query-meter usage delta (covering
// any boundary descendants evaluated eagerly during construction).
type vecInstrument struct {
	vec.Operator
	n  plan.Node
	an *Analysis
	st *runState
	qm *texservice.Meter

	start        time.Time
	usageBefore  texservice.Usage
	probesBefore int
	roundsBefore int

	rows    int
	batches int
	done    bool
}

func (w *vecInstrument) Next() (*vec.Batch, error) {
	b, err := w.Operator.Next()
	if err != nil {
		return nil, err
	}
	if b != nil {
		w.rows += b.Len()
		w.batches++
		w.st.Batches++
		return b, nil
	}
	if !w.done {
		w.done = true
		var usage texservice.Usage
		if w.qm != nil {
			usage = w.qm.Snapshot().Sub(w.usageBefore)
		}
		w.an.record(w.n, NodeActual{
			Rows:        w.rows,
			Elapsed:     time.Since(w.start),
			Usage:       usage,
			Probes:      w.st.Probes - w.probesBefore,
			BatchRounds: w.st.BatchRounds - w.roundsBefore,
			Batches:     w.batches,
		})
	}
	return nil, nil
}
