package optimizer

import (
	"fmt"
	"math"
	"strings"

	"textjoin/internal/cost"
	"textjoin/internal/obs"
	"textjoin/internal/plan"
	"textjoin/internal/relation"
	"textjoin/internal/sqlparse"
	"textjoin/internal/texservice"
)

// Classic System-R style selectivity guesses for relational predicates.
const (
	rangeSelectivity    = 1.0 / 3
	colColSelectivity   = 0.1
	containsSelectivity = 0.1
)

// scanCand builds the scan candidate for a base table, applying its
// selection predicates in the estimate.
func (o *Optimizer) scanCand(table string) (cand, error) {
	base := o.cat.Tables[table].Qualified()
	pred := o.a.Selections[table]
	sel, err := o.predSelectivity(table, pred)
	if err != nil {
		return cand{}, err
	}
	card := math.Max(1, float64(base.Cardinality())*sel)
	c := cand{
		card: card,
		cost: o.opts.RelTupleCost * float64(base.Cardinality()),
	}
	c.node = &plan.Scan{
		Est:   plan.Est{EstCard: card, EstCost: c.cost},
		Table: table,
		Pred:  pred,
	}
	return c, nil
}

// predSelectivity estimates a relational predicate's selectivity over one
// table.
func (o *Optimizer) predSelectivity(table string, p relation.Predicate) (float64, error) {
	switch p := p.(type) {
	case nil, relation.True:
		return 1, nil
	case relation.ColConst:
		if p.Op != relation.OpEq && p.Op != relation.OpNe {
			return rangeSelectivity, nil
		}
		d, err := o.distinctOf(table, p.Col)
		if err != nil {
			return 0, err
		}
		eq := 1 / math.Max(1, float64(d))
		if p.Op == relation.OpNe {
			return 1 - eq, nil
		}
		return eq, nil
	case relation.ColCol:
		if p.Op == relation.OpEq {
			return colColSelectivity, nil
		}
		return 1 - colColSelectivity, nil
	case relation.Contains:
		return containsSelectivity, nil
	case relation.And:
		s := 1.0
		for _, sub := range p {
			f, err := o.predSelectivity(table, sub)
			if err != nil {
				return 0, err
			}
			s *= f
		}
		return s, nil
	case relation.Or:
		s := 0.0
		for _, sub := range p {
			f, err := o.predSelectivity(table, sub)
			if err != nil {
				return 0, err
			}
			s += f
		}
		return math.Min(1, s), nil
	case relation.Not:
		f, err := o.predSelectivity(table, p.P)
		if err != nil {
			return 0, err
		}
		return 1 - f, nil
	default:
		return 0.5, nil
	}
}

// distinctOf returns the base distinct count of a qualified column. The
// table memoizes it (the Qualified view shares its base's memo), so this
// is O(1) in table size after its first use.
func (o *Optimizer) distinctOf(table, qualified string) (int, error) {
	base, ok := o.cat.Tables[table]
	if !ok {
		return 0, fmt.Errorf("optimizer: unknown table %q", table)
	}
	return base.Qualified().DistinctCount(qualified)
}

// tableOfColumn resolves a qualified column to its table name.
func tableOfColumn(qualified string) string {
	for i := 0; i < len(qualified); i++ {
		if qualified[i] == '.' {
			return qualified[:i]
		}
	}
	return qualified
}

// extend generates the candidates for joining `left` with base table t —
// the four alternatives of §6 (plain, probe-left, probe-right, probe-both)
// in PrL modes, just the plain join in traditional mode. srcMask carries
// the already-joined sources: probes only make sense against sources
// whose foreign join is still pending.
func (o *Optimizer) extend(left cand, t string, srcMask uint32) ([]cand, error) {
	rightScan, err := o.scanCand(t)
	if err != nil {
		return nil, err
	}

	lefts := []cand{left}
	rights := []cand{rightScan}
	if o.opts.Mode != ModeTraditional && srcMask != o.fullSrcMask() {
		lp, err := o.probeCands(left, srcMask)
		if err != nil {
			return nil, err
		}
		lefts = append(lefts, lp...)
		rp, err := o.probeCands(rightScan, srcMask)
		if err != nil {
			return nil, err
		}
		rights = append(rights, rp...)
	}

	leftMask := o.maskOf(left.node)
	var out []cand
	for _, l := range lefts {
		for _, r := range rights {
			c, err := o.joinCand(l, r, leftMask, t)
			if err != nil {
				return nil, err
			}
			out = append(out, c)
		}
	}
	return out, nil
}

// maskOf recovers the table bitmask a plan node covers.
func (o *Optimizer) maskOf(n plan.Node) uint32 {
	switch n := n.(type) {
	case *plan.Scan:
		return o.tableBit[n.Table]
	case *plan.Probe:
		return o.maskOf(n.Input)
	case *plan.Join:
		return o.maskOf(n.Left) | o.maskOf(n.Right)
	case *plan.TextJoin:
		return o.maskOf(n.Input)
	case *plan.Project:
		return o.maskOf(n.Input)
	default:
		return 0
	}
}

// joinCand builds one relational join candidate.
func (o *Optimizer) joinCand(l, r cand, leftMask uint32, rightTable string) (cand, error) {
	o.joinTasks++
	// Collect the edges applicable between the left subtree and the new
	// table.
	var equi []relation.EquiJoinCond
	var residual relation.And
	selectivity := 1.0
	for _, e := range o.a.Edges {
		var other string
		switch {
		case e.A == rightTable:
			other = e.B
		case e.B == rightTable:
			other = e.A
		default:
			continue
		}
		if o.tableBit[other]&leftMask == 0 {
			continue
		}
		for _, eq := range e.Equi {
			// Orient: Left side must reference the left subtree.
			cond := eq
			if tableOfColumn(eq.Left) == rightTable {
				cond = relation.EquiJoinCond{Left: eq.Right, Right: eq.Left}
			}
			equi = append(equi, cond)
			dl, err := o.distinctOf(tableOfColumn(cond.Left), cond.Left)
			if err != nil {
				return cand{}, err
			}
			dr, err := o.distinctOf(tableOfColumn(cond.Right), cond.Right)
			if err != nil {
				return cand{}, err
			}
			selectivity /= math.Max(1, math.Max(float64(dl), float64(dr)))
		}
		for _, res := range e.Residual {
			residual = append(residual, res)
			if cc, ok := res.(relation.ColCol); ok && cc.Op == relation.OpNe {
				selectivity *= 1 - colColSelectivity
			} else {
				selectivity *= rangeSelectivity
			}
		}
	}

	card := math.Max(1, l.card*r.card*selectivity)
	algo := "hash"
	var joinCost float64
	if len(equi) > 0 {
		joinCost = o.opts.RelTupleCost * (l.card + r.card + card)
	} else {
		algo = "nested-loop"
		joinCost = o.opts.RelTupleCost * (l.card * r.card)
	}
	var resPred relation.Predicate
	if len(residual) > 0 {
		resPred = residual
	}
	c := cand{card: card, cost: l.cost + r.cost + joinCost, probed: l.probed | r.probed}
	c.node = &plan.Join{
		Est:       plan.Est{EstCard: card, EstCost: c.cost},
		Left:      l.node,
		Right:     r.node,
		Equi:      equi,
		Residual:  resPred,
		Algorithm: algo,
	}
	return c, nil
}

// availableForeignOf returns the indexes of one source's foreign
// predicates whose table is covered by the node.
func (o *Optimizer) availableForeignOf(source string, n plan.Node) []int {
	mask := o.maskOf(n)
	var out []int
	for i, f := range o.a.Foreign {
		if f.Source == source && o.tableBit[f.Table]&mask != 0 {
			out = append(out, i)
		}
	}
	return out
}

// costParams assembles the cost-model parameters of one source for the
// given candidate input and set of (that source's) foreign predicates.
// Predicates whose bit is set in probed have already been applied as
// probe reductions upstream: their selectivity is 1 on the surviving
// tuples and their fanout is the conditional (given-a-match) fanout.
func (o *Optimizer) costParams(source string, card float64, predIdxs []int, probed uint32) (*cost.Params, error) {
	svc := o.services[source]
	part := o.a.Part(source)
	p := &cost.Params{
		Costs:    svc.Meter().Costs(),
		D:        o.numDocs[source],
		M:        svc.MaxTerms(),
		G:        o.opts.G,
		N:        int(math.Ceil(card)),
		LongForm: part.LongForm,
	}
	if p.N < 1 {
		p.N = 1
	}
	for _, i := range predIdxs {
		f := o.a.Foreign[i]
		e := o.predStats[i]
		distinct, err := o.distinctOf(f.Table, f.Column)
		if err != nil {
			return nil, err
		}
		if fd := float64(distinct); fd > card {
			distinct = p.N
		}
		if distinct < 1 {
			distinct = 1
		}
		terms := e.Terms
		if terms < 1 {
			terms = 1
		}
		sel, fanout := e.Sel, e.Fanout
		if probed&(1<<uint(i)) != 0 {
			sel = 1
			if e.CondFanout > 0 {
				fanout = e.CondFanout
			}
		}
		p.Preds = append(p.Preds, cost.Pred{
			Sel:      sel,
			Fanout:   fanout,
			Distinct: distinct,
			Terms:    terms,
			TermsMax: e.TermsMax,
		})
	}
	p.BatchProbe = o.opts.BatchProbe && o.canBatchProbe(source)
	if st, ok := o.selStats[source]; ok {
		p.HasSel = true
		p.SelFanout = st.Fanout
		p.SelPostings = st.Postings
		p.SelTerms = part.Sel.TermCount()
	}
	return p, nil
}

// probeCands generates probe-reduced variants of a candidate: for each
// text source whose foreign join is still pending, one candidate per
// probe set of bounded size over the source's available, not-yet-probed
// foreign predicates.
func (o *Optimizer) probeCands(c cand, srcMask uint32) ([]cand, error) {
	var out []cand
	for si, src := range o.sources {
		if srcMask&(1<<uint(si)) != 0 {
			continue // source already joined: probes would be redundant
		}
		var avail []int
		for _, i := range o.availableForeignOf(src, c.node) {
			if c.probed&(1<<uint(i)) == 0 {
				avail = append(avail, i)
			}
		}
		if len(avail) == 0 {
			continue
		}
		params, err := o.costParams(src, c.card, avail, c.probed)
		if err != nil {
			return nil, err
		}
		bound := params.ProbeBound()

		subset := make([]int, 0, bound)
		var rec func(start int)
		rec = func(start int) {
			if len(subset) > 0 {
				out = append(out, o.probeCand(c, src, avail, subset, params))
			}
			if len(subset) == bound {
				return
			}
			for i := start; i < len(avail); i++ {
				subset = append(subset, i)
				rec(i + 1)
				subset = subset[:len(subset)-1]
			}
		}
		rec(0)
	}
	return out, nil
}

// probeCand builds the probe-node candidate for one probe set (indexes
// into avail, which indexes o.a.Foreign). With batching enabled it costs
// both the per-tuple and the batched probe discipline and plans the
// cheaper one.
func (o *Optimizer) probeCand(c cand, source string, avail []int, subset []int, params *cost.Params) cand {
	probeCost := params.CostProbe(subset)
	batched := false
	if params.BatchProbe {
		if bc := params.CostProbeBatched(subset); bc < probeCost {
			probeCost, batched = bc, true
		}
	}
	reduced := math.Max(1, c.card*params.JointSel(subset))
	preds := make([]sqlparse.ForeignPred, len(subset))
	probed := c.probed
	for i, j := range subset {
		preds[i] = o.a.Foreign[avail[j]]
		probed |= 1 << uint(avail[j])
	}
	out := cand{card: reduced, cost: c.cost + probeCost, probed: probed}
	out.node = &plan.Probe{
		Est:     plan.Est{EstCard: reduced, EstCost: out.cost},
		Input:   c.node,
		Source:  source,
		Preds:   preds,
		TextSel: o.a.Part(source).Sel,
		Batched: batched,
	}
	return out
}

// canBatchProbe reports whether the source's service can execute batched
// probes: either the probe fields travel in the short form (so OR-packed
// batches can be attributed relationally) or the service offers batched
// invocation.
func (o *Optimizer) canBatchProbe(source string) bool {
	if o.shortFieldsCover(source) {
		return true
	}
	_, ok := o.services[source].(texservice.BatchSearcher)
	return ok
}

// textJoinCands generates the foreign-join candidates of one source for
// an input: one per applicable join method, with probe columns optimized
// for the probe-based methods (§5).
func (o *Optimizer) textJoinCands(c cand, source string) ([]cand, error) {
	var sp *obs.Span
	if o.ctx != nil {
		_, sp = obs.StartSpan(o.ctx, "optimize.textjoin")
	}
	defer sp.End()
	var all []int
	for i, f := range o.a.Foreign {
		if f.Source == source {
			all = append(all, i)
		}
	}
	params, err := o.costParams(source, c.card, all, c.probed)
	if err != nil {
		return nil, err
	}
	outCard := math.Max(0, params.V(params.NK(), params.AllColumns()))
	if sp != nil {
		sp.SetAttr(obs.Str("source", source), obs.F64("input_card", c.card),
			obs.F64("out_card", outCard))
	}

	shortOK := o.shortFieldsCover(source)
	part := o.a.Part(source)
	preds := o.a.ForeignOf(source)

	var out []cand
	for _, m := range cost.AllMethods {
		if !params.Applicable(m) {
			continue
		}
		if (m == cost.MethodRTP || m == cost.MethodSJRTP || m == cost.MethodPRTP || m == cost.MethodPRTPBatch) && !shortOK {
			continue
		}
		J, methodCost := params.Choose(m)
		probeCols := o.probeColumnNames(all, J)
		if math.IsInf(methodCost, 1) {
			continue
		}
		if sp != nil {
			sp.SetAttr(obs.F64("cost."+m.String(), methodCost))
			if len(probeCols) > 0 {
				sp.SetAttr(obs.Str("probe_cols."+m.String(), strings.Join(probeCols, ",")))
			}
		}
		total := c.cost + methodCost + o.opts.RelTupleCost*outCard
		node := &plan.TextJoin{
			Est:          plan.Est{EstCard: outCard, EstCost: total},
			Input:        c.node,
			Source:       source,
			Method:       m,
			ProbeColumns: probeCols,
			Preds:        preds,
			TextSel:      part.Sel,
			LongForm:     part.LongForm,
			DocFields:    part.DocFields,
		}
		out = append(out, cand{node: node, card: outCard, cost: total, probed: c.probed})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("optimizer: no applicable foreign-join method for source %q", source)
	}
	return out, nil
}

// probeColumnNames maps positions within a params predicate list back to
// distinct qualified column names, via the global indexes in all.
func (o *Optimizer) probeColumnNames(all []int, positions []int) []string {
	seen := map[string]bool{}
	var out []string
	for _, j := range positions {
		c := o.a.Foreign[all[j]].Column
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// shortFieldsCover reports whether every foreign predicate field of the
// source is in its service's short form (needed by the RTP-family
// methods).
func (o *Optimizer) shortFieldsCover(source string) bool {
	short := map[string]bool{}
	for _, f := range o.services[source].ShortFields() {
		short[f] = true
	}
	for _, f := range o.a.Foreign {
		if f.Source == source && !short[f.Field] {
			return false
		}
	}
	return true
}
