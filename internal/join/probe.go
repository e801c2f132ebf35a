package join

import (
	"context"
	"fmt"

	"textjoin/internal/relation"
	"textjoin/internal/texservice"
	"textjoin/internal/value"
)

// validateProbeColumns checks that the probe columns form a nonempty
// subset of the join columns.
func validateProbeColumns(spec *Spec, probeCols []string) error {
	if len(probeCols) == 0 {
		return fmt.Errorf("join: no probe columns")
	}
	joinCols := map[string]bool{}
	for _, c := range spec.JoinColumns() {
		joinCols[c] = true
	}
	seen := map[string]bool{}
	for _, c := range probeCols {
		if !joinCols[c] {
			return fmt.Errorf("join: probe column %q is not a join column", c)
		}
		if seen[c] {
			return fmt.Errorf("join: duplicate probe column %q", c)
		}
		seen[c] = true
	}
	return nil
}

// PTS is probing with tuple substitution (§3.3). Two variants are
// provided:
//
//   - The default eager variant probes every distinct probe-column
//     binding first and substitutes only the tuples whose probe
//     succeeded. Its cost is exactly the paper's formula
//     C_{P+TS} = C_P + c_i·R + … (§4.3), so it is what the optimizer's
//     predictions describe and what it instantiates.
//   - The lazy variant is §3.3's probe-cache algorithm verbatim: the
//     substituted query is sent first, and a probe is sent only after a
//     failed query (never twice per probe binding). It saves the probe
//     for bindings whose full query succeeds, but when probe bindings are
//     rarely shared it can cost almost one probe per failing binding on
//     top of the full queries.
type PTS struct {
	// ProbeColumns is the probe set P; it must be a nonempty subset of
	// the join columns. The optimizer selects it via the cost model (§5).
	ProbeColumns []string
	// Lazy selects §3.3's query-first probe-cache algorithm.
	Lazy bool
	// Batched turns on batched probe pushdown for the eager variant's
	// probing phase: deduplicated, sorted probe bindings are packed into
	// OR groups under the term limit (or travel via batched invocation)
	// instead of one search each. The result set is identical; only the
	// number of probe round trips changes. Ignored by Lazy, whose
	// query-first discipline is inherently per-binding.
	Batched bool
}

// Name implements Method.
func (m PTS) Name() string {
	switch {
	case m.Lazy:
		return "P+TS(lazy)"
	case m.Batched:
		return "P+TS(batched)"
	default:
		return "P+TS"
	}
}

// Applicable implements Method: probing needs multiple join predicates so
// a meaningful probe subset exists (§3.3).
func (m PTS) Applicable(spec *Spec, svc texservice.Service) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if len(spec.Preds) < 2 {
		return fmt.Errorf("join: probing requires multiple join predicates")
	}
	return validateProbeColumns(spec, m.ProbeColumns)
}

// Execute implements Method.
func (m PTS) Execute(ctx context.Context, spec *Spec, svc texservice.Service) (*Result, error) {
	if err := m.Applicable(spec, svc); err != nil {
		return nil, err
	}
	return run(ctx, "join."+m.Name(), spec, svc, func(ex *execution) error {
		n, err := spec.nest(m.ProbeColumns)
		if err != nil {
			return err
		}
		if m.Lazy {
			return m.executeCached(ex, n)
		}
		return m.executeEager(ex, n)
	})
}

// executeEager probes all distinct probe bindings up front, then
// substitutes for the join bindings whose probe succeeded — the execution
// the C_{P+TS} formula describes.
func (m PTS) executeEager(ex *execution, n nesting) error {
	outcomes, err := ex.probeAll(m.ProbeColumns, n.probes, m.Batched, false)
	if err != nil {
		return err
	}
	for j, b := range n.joins {
		if !outcomes[n.under[j]].success {
			continue
		}
		if _, err := ex.substitute(b); err != nil {
			return err
		}
	}
	return nil
}

// executeCached is the probe-cache algorithm of §3.3.
func (m PTS) executeCached(ex *execution, n nesting) error {
	preds, _ := ex.spec.splitPreds(m.ProbeColumns)
	// probeCache maps a probe binding to its probe's success.
	probeCache := map[int]bool{}
	for j, b := range n.joins {
		p := n.under[j]
		if success, known := probeCache[p]; known && !success {
			continue // cache has a fail entry: skip without invocation
		}
		res, err := ex.substitute(b)
		if err != nil {
			return err
		}
		if res == nil {
			continue // unsearchable binding: cannot match
		}
		if !res.IsEmpty() {
			// A nonempty query implies the probe would succeed.
			probeCache[p] = true
			continue
		}
		if _, known := probeCache[p]; known {
			continue // probe already known (success); no probe resent
		}
		// Send the probe and cache its outcome.
		o, err := ex.probe(preds, ex.spec.rep(b), false)
		if err != nil {
			return err
		}
		probeCache[p] = o.success
	}
	return nil
}

var _ Method = PTS{}

// PRTP is probing with relational text processing (§3.3, Example 3.6):
// one probe per distinct binding of the probe columns, carrying the text
// selection and the probe-column predicates and requesting the short form;
// the remaining join predicates are then evaluated relationally against
// the probes' result documents.
type PRTP struct {
	// ProbeColumns is the probe set P; a nonempty subset of join columns.
	ProbeColumns []string
	// Batched turns on batched probe pushdown: the distinct probe
	// bindings travel in OR groups under the term limit (or via batched
	// invocation), with hits attributed back to bindings relationally.
	// Result rows and their order are identical to per-binding probing.
	Batched bool
}

// Name implements Method.
func (m PRTP) Name() string {
	if m.Batched {
		return "P+RTP(batched)"
	}
	return "P+RTP"
}

// Applicable implements Method: the non-probe predicates must be
// evaluable by SQL string matching over short-form fields.
func (m PRTP) Applicable(spec *Spec, svc texservice.Service) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if len(spec.Preds) < 2 {
		return fmt.Errorf("join: probing requires multiple join predicates")
	}
	if err := validateProbeColumns(spec, m.ProbeColumns); err != nil {
		return err
	}
	_, rest := spec.splitPreds(m.ProbeColumns)
	return requireShortFields(rest, svc)
}

// Execute implements Method.
func (m PRTP) Execute(ctx context.Context, spec *Spec, svc texservice.Service) (*Result, error) {
	if err := m.Applicable(spec, svc); err != nil {
		return nil, err
	}
	return run(ctx, "join."+m.Name(), spec, svc, func(ex *execution) error {
		probes, err := spec.bindings(m.ProbeColumns)
		if err != nil {
			return err
		}
		outcomes, err := ex.probeAll(m.ProbeColumns, probes, m.Batched, true)
		if err != nil {
			return err
		}
		// Emission, in first-appearance binding order — the same output
		// order batched or not.
		_, rest := spec.splitPreds(m.ProbeColumns)
		for i, b := range probes {
			if !outcomes[i].success {
				continue
			}
			if err := ex.emitMatches(newHitMatcher(spec, outcomes[i].hits, rest), b.rows); err != nil {
				return err
			}
		}
		return nil
	})
}

var _ Method = PRTP{}

// ProbeReduce implements the probe-as-semi-join reducer used by PrL trees
// (§6): it returns the tuples of the spec's relation whose probe on the
// given columns succeeds, together with the execution stats. The result
// has the same schema as the input relation, and keeps its
// first-appearance binding order batched or not. batched turns on batched
// probe pushdown (OR packing or batched invocation) for the probes.
func ProbeReduce(ctx context.Context, spec *Spec, probeCols []string, svc texservice.Service, batched bool) (*relation.Table, Stats, error) {
	res, err := run(ctx, "probe.reduce", spec, svc, func(ex *execution) error {
		if err := validateProbeColumns(spec, probeCols); err != nil {
			return err
		}
		probes, err := spec.bindings(probeCols)
		if err != nil {
			return err
		}
		outcomes, err := ex.probeAll(probeCols, probes, batched, false)
		if err != nil {
			return err
		}
		// The reducer's output is the input relation's rows, not join rows:
		// copies, like every join's output, so that nothing it returns
		// aliases an input that may live in recycled memory. All surviving
		// rows share one allocation.
		var n int
		for i, b := range probes {
			if outcomes[i].success {
				n += len(b.rows)
			}
		}
		w := spec.Relation.Schema.Arity()
		vals := make([]value.Value, 0, n*w)
		ex.out = relation.NewTable(spec.Relation.Name, spec.Relation.Schema)
		ex.out.Rows = make([]relation.Tuple, 0, n)
		for i, b := range probes {
			if outcomes[i].success {
				for _, r := range b.rows {
					vals = append(vals, spec.Relation.Rows[r]...)
					ex.out.Rows = append(ex.out.Rows, relation.Tuple(vals[len(vals)-w:len(vals):len(vals)]))
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, Stats{}, err
	}
	return res.Table, res.Stats, nil
}
