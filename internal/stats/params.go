package stats

import (
	"textjoin/internal/cost"
	"textjoin/internal/join"
)

// BuildParams assembles the cost-model parameters (the paper's Table 1)
// for a foreign join by sampling the text service: per-predicate
// selectivities and fanouts via Predicate, selection statistics via
// Selection, distinct counts from the relation, and collection constants
// from the service. g selects the correlation model (§4.2); the paper's
// experiments use g=1 (fully correlated).
func (e *Estimator) BuildParams(spec *join.Spec, g int) (*cost.Params, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	d, err := e.svc.NumDocs()
	if err != nil {
		return nil, err
	}
	p := &cost.Params{
		Costs:    e.svc.Meter().Costs(),
		D:        d,
		M:        e.svc.MaxTerms(),
		G:        g,
		N:        spec.Relation.Cardinality(),
		LongForm: spec.LongForm,
	}
	for _, pred := range spec.Preds {
		est, err := e.Predicate(spec.Relation, pred.Column, pred.Field)
		if err != nil {
			return nil, err
		}
		distinct, err := spec.Relation.DistinctCount(pred.Column)
		if err != nil {
			return nil, err
		}
		p.Preds = append(p.Preds, cost.Pred{
			Sel:      est.Sel,
			Fanout:   est.Fanout,
			Distinct: distinct,
			Terms:    est.Terms,
			TermsMax: est.TermsMax,
		})
	}
	if spec.TextSel != nil {
		st, err := e.Selection(spec.TextSel)
		if err != nil {
			return nil, err
		}
		p.HasSel = true
		p.SelFanout = st.Fanout
		p.SelPostings = st.Postings
		p.SelTerms = spec.TextSel.TermCount()
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// ProbeColumnsFor translates a cost-model probe set (predicate indexes)
// into the spec's distinct probe column names.
func ProbeColumnsFor(spec *join.Spec, predIdx []int) []string {
	seen := map[string]bool{}
	var out []string
	for _, i := range predIdx {
		c := spec.Preds[i].Column
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// ChooseMethod picks the cheapest applicable method for the spec under the
// sampled cost model and instantiates it (with optimal probe columns for
// the probe-based methods). It returns the method, the underlying
// parameters, and the predicted cost.
func (e *Estimator) ChooseMethod(spec *join.Spec, g int) (join.Method, *cost.Params, float64, error) {
	p, err := e.BuildParams(spec, g)
	if err != nil {
		return nil, nil, 0, err
	}
	best, bestCost := p.Best()
	method, err := InstantiateMethod(spec, p, best)
	if err != nil {
		return nil, nil, 0, err
	}
	return method, p, bestCost, nil
}

// InstantiateMethod builds the executable join.Method for a cost-model
// method choice, selecting optimal probe columns where needed.
func InstantiateMethod(spec *join.Spec, p *cost.Params, m cost.Method) (join.Method, error) {
	J, _ := p.Choose(m)
	return join.For(m, ProbeColumnsFor(spec, J))
}
