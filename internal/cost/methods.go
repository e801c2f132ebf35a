package cost

import (
	"fmt"
	"math"
)

// Method identifies a foreign-join execution method (§3).
type Method uint8

// The join methods of §3. MethodSJRTP covers both the pure semi-join and
// its RTP generalization (the number of invocations and transmissions are
// the same; only the relational post-processing differs).
const (
	MethodTS Method = iota
	MethodRTP
	MethodSJRTP
	MethodPTS
	MethodPRTP
	// MethodPTSBatch and MethodPRTPBatch are the probing methods with the
	// probing phase batched (OR-packed under the term limit, see batch.go).
	// They participate only when Params.BatchProbe is set.
	MethodPTSBatch
	MethodPRTPBatch
)

// AllMethods lists every method in presentation order.
var AllMethods = []Method{MethodTS, MethodRTP, MethodSJRTP, MethodPTS, MethodPRTP, MethodPTSBatch, MethodPRTPBatch}

// String returns the paper's abbreviation.
func (m Method) String() string {
	switch m {
	case MethodTS:
		return "TS"
	case MethodRTP:
		return "RTP"
	case MethodSJRTP:
		return "SJ+RTP"
	case MethodPTS:
		return "P+TS"
	case MethodPRTP:
		return "P+RTP"
	case MethodPTSBatch:
		return "P+TS(batched)"
	case MethodPRTPBatch:
		return "P+RTP(batched)"
	default:
		return fmt.Sprintf("Method(%d)", uint8(m))
	}
}

// Applicable reports whether the method can evaluate a join with these
// parameters:
//
//   - TS is universally applicable.
//   - RTP needs a text selection (it sends only the selection, §3.2).
//   - SJ+RTP needs the search-term limit to leave room for at least one
//     tuple conjunct per batch.
//   - P+TS and P+RTP need at least two join predicates, so a proper
//     nonempty probe-column subset exists (§3.3).
//   - The batched probe variants additionally need BatchProbe enabled
//     (the service must be able to batch; see batch.go).
func (p *Params) Applicable(m Method) bool {
	switch m {
	case MethodTS:
		return true
	case MethodRTP:
		return p.HasSel
	case MethodSJRTP:
		return p.M-p.selTermCount() >= p.TermsPerTuple()
	case MethodPTS, MethodPRTP:
		return p.K() >= 2
	case MethodPTSBatch, MethodPRTPBatch:
		return p.BatchProbe && p.K() >= 2
	default:
		return false
	}
}

func (p *Params) selTermCount() int {
	if !p.HasSel {
		return 0
	}
	return p.SelTerms
}

// resultTransmission is the long-form transmission of final result
// documents shared by the RTP-family methods: each distinct matching
// document is retrieved once. Zero when the query does not need long
// forms.
func (p *Params) resultTransmission() float64 {
	if !p.LongForm {
		return 0
	}
	return p.Costs.CL * p.ResultDistinctDocs()
}

// substTransmission is the per-search transmission constant for
// substituted searches (TS and the substitution phase of P+TS): long form
// when the query needs documents, short form otherwise.
func (p *Params) substTransmission() float64 {
	if p.LongForm {
		return p.Costs.CL
	}
	return p.Costs.CS
}

// CostTS is the tuple substitution cost (§4.3), for the distinct-binding
// variant: one search per distinct binding of the join columns.
//
//	C_TS = c_i·N_K + c_p·I_{N_K,K} + c_l·V_{N_K,K}
func (p *Params) CostTS() float64 {
	n := p.NK()
	K := p.AllColumns()
	return p.Costs.CI*n + p.Costs.CP*p.I(n, K) + p.substTransmission()*p.V(n, K)
}

// CostTSBatched models tuple substitution over a batched-invocation text
// system (the §8 extension): processing and transmission equal CostTS,
// but the invocation cost is paid once per batch of ⌊M/t⌋ substituted
// queries instead of once per query.
func (p *Params) CostTSBatched() float64 {
	perQuery := p.TermsPerTuple() + p.selTermCount()
	if perQuery > p.M {
		return math.Inf(1)
	}
	perBatch := p.M / perQuery
	n := p.NK()
	batches := math.Ceil(n / float64(perBatch))
	K := p.AllColumns()
	return p.Costs.CI*batches + p.Costs.CP*p.I(n, K) + p.substTransmission()*p.V(n, K)
}

// CostPTSLazy models §3.3's query-first probe-cache algorithm (the lazy
// P+TS variant): every binding whose probe value is not known to fail
// sends its full query, and a probe is sent once per distinct failing
// probe value. With S the probe success probability and N_J distinct
// probe values, full queries ≈ S·N_K + (1−S)·N_J and probes ≈ (1−S)·N_J
// (successful full queries mark the cache without a probe; bindings that
// fail despite a successful probe send no probe either, so this slightly
// overestimates probes for mid-range selectivities).
func (p *Params) CostPTSLazy(J []int) float64 {
	s := p.JointSel(J)
	nj := p.NDistinct(J)
	nk := p.NK()
	fullQueries := s*nk + (1-s)*nj
	probes := (1 - s) * nj
	K := p.AllColumns()
	return p.Costs.CI*(fullQueries+probes) +
		p.Costs.CP*(p.I(fullQueries, K)+p.I(probes, J)) +
		p.Costs.CS*p.V(probes, J) +
		p.substTransmission()*p.V(s*nk, K)
}

// CostProbe is the cost of the probing phase on columns J (§4.3):
//
//	C_P = c_i·N_J + c_p·I_{N_J,J} + c_s·V_{N_J,J}
//
// Probes request the short form regardless of the query's output needs.
func (p *Params) CostProbe(J []int) float64 {
	n := p.NDistinct(J)
	return p.Costs.CI*n + p.Costs.CP*p.I(n, J) + p.Costs.CS*p.V(n, J)
}

// CostPTS is probing + tuple substitution on probe columns J (§4.3):
//
//	C_{P+TS} = C_P + c_i·R + c_p·I_{R,K} + c_l·V_{R,K},  R = N_K·S_{g,J}
func (p *Params) CostPTS(J []int) float64 {
	r := p.NK() * p.JointSel(J)
	K := p.AllColumns()
	return p.CostProbe(J) +
		p.Costs.CI*r + p.Costs.CP*p.I(r, K) + p.substTransmission()*p.V(r, K)
}

// CostRTP is relational text processing (§3.2): one search carrying only
// the text selection, shipping its short-form matches to the relational
// side, string-matching them there, and finally retrieving the documents
// of the result long-form if the query needs them.
func (p *Params) CostRTP() float64 {
	if !p.HasSel {
		return math.Inf(1)
	}
	return p.Costs.CI +
		p.Costs.CP*p.SelPostings +
		p.Costs.CS*p.SelFanout +
		p.Costs.CA*p.SelFanout +
		p.resultTransmission()
}

// SJBatches returns the number of semi-join searches needed: tuples are
// packed into OR groups subject to the term limit M, with the selection's
// terms counted in every batch (§3.2).
func (p *Params) SJBatches() float64 {
	perTuple := p.TermsPerTuple()
	room := p.M - p.selTermCount()
	if room < perTuple {
		return math.Inf(1)
	}
	perBatch := room / perTuple
	return math.Ceil(p.NK() / float64(perBatch))
}

// CostSJRTP is the semi-join method followed by relational text processing
// (§3.2): ⌈N_K/B⌉ batched searches, each processing the selection lists
// plus its tuples' join-term lists, shipping short-form matches, matching
// them relationally, and retrieving result documents long-form if needed.
func (p *Params) CostSJRTP() float64 {
	nb := p.SJBatches()
	if math.IsInf(nb, 1) {
		return nb
	}
	nk := p.NK()
	K := p.AllColumns()
	// Shipped documents: every tuple's expected matches, but no batch can
	// ship more than the selection's matches (its result is a subset of
	// the selection result when a selection exists).
	shipped := p.V(nk, K)
	if p.HasSel {
		shipped = math.Min(shipped, nb*p.SelFanout)
	} else {
		shipped = math.Min(shipped, nb*float64(p.D))
	}
	// Each batch processes the selection's lists once; every tuple's join
	// terms are processed exactly once across all batches.
	joinListWork := p.I(nk, K) - nk*p.SelListWork()
	return p.Costs.CI*nb +
		p.Costs.CP*(nb*p.SelListWork()+joinListWork) +
		p.Costs.CS*shipped +
		p.Costs.CA*shipped +
		p.resultTransmission()
}

// CostPRTP is probing + relational text processing on probe columns J
// (§3.3, Example 3.6): probes carry the selection and the probe-column
// predicates and request the short form; their matches are shipped and the
// remaining join predicates are evaluated relationally.
func (p *Params) CostPRTP(J []int) float64 {
	n := p.NDistinct(J)
	shipped := p.V(n, J)
	return p.Costs.CI*n +
		p.Costs.CP*p.I(n, J) +
		p.Costs.CS*shipped +
		p.Costs.CA*shipped +
		p.resultTransmission()
}

// Choose returns the method's probe set J — OptimalProbe's choice for the
// four probing methods, nil otherwise — and its cost, +Inf for an unknown
// method. It does not check applicability; Cost does.
func (p *Params) Choose(m Method) (J []int, c float64) {
	switch m {
	case MethodTS:
		return nil, p.CostTS()
	case MethodRTP:
		return nil, p.CostRTP()
	case MethodSJRTP:
		return nil, p.CostSJRTP()
	case MethodPTS:
		return p.OptimalProbe(p.CostPTS)
	case MethodPRTP:
		return p.OptimalProbe(p.CostPRTP)
	case MethodPTSBatch:
		return p.OptimalProbe(p.CostPTSBatch)
	case MethodPRTPBatch:
		return p.OptimalProbe(p.CostPRTPBatch)
	default:
		return nil, math.Inf(1)
	}
}

// Cost returns the method's cost, optimizing probe columns for the
// probe-based methods. It returns +Inf for inapplicable methods.
func (p *Params) Cost(m Method) float64 {
	if !p.Applicable(m) {
		return math.Inf(1)
	}
	_, c := p.Choose(m)
	return c
}

// Best returns the cheapest applicable method and its predicted cost.
func (p *Params) Best() (Method, float64) {
	best := MethodTS
	bestCost := math.Inf(1)
	for _, m := range AllMethods {
		if c := p.Cost(m); c < bestCost {
			best, bestCost = m, c
		}
	}
	return best, bestCost
}
