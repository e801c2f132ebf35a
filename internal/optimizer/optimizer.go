// Package optimizer implements the paper's query optimization: the single-
// join method selection of §5 and the System-R style dynamic-programming
// enumeration over the extended execution space of PrL trees of §6.
//
// A PrL tree is a left-deep join tree over the relational tables with the
// text source placed at one position in the order (the foreign join), plus
// optional probe nodes — semi-join reductions by the text source — placed
// below the foreign join. The enumerator extends the classical algorithm
// [SAC+79]: when a subplan is extended with a relation, the four
// alternatives of §6 are considered — (a) plain join, (b) probe the
// accumulated subplan first, (c) probe the incoming relation first,
// (d) both.
//
// Subplans with probes applied have both different cost and different
// cardinality from their unprobed counterparts, so — as the paper observes
// — they cannot be compared by cost alone. ModePrL therefore keeps a
// Pareto frontier of (cost, cardinality)-undominated plans per dynamic-
// programming state, which makes the desideratum "never worse than the
// traditional space" hold rigorously: the traditional plan is only pruned
// when some plan dominates it outright. ModePrLGreedy keeps a single
// cheapest plan per state (the paper's moderate-overhead choice), and
// ModeTraditional disables probe nodes entirely.
package optimizer

import (
	"context"
	"fmt"
	"math"
	"sort"

	"textjoin/internal/plan"
	"textjoin/internal/sqlparse"
	"textjoin/internal/stats"
	"textjoin/internal/texservice"
)

// Mode selects the execution space and search discipline.
type Mode uint8

const (
	// ModeTraditional searches left-deep trees without probe nodes.
	ModeTraditional Mode = iota
	// ModePrL searches PrL trees keeping a Pareto frontier per state.
	ModePrL
	// ModePrLGreedy searches PrL trees keeping one plan per state.
	ModePrLGreedy
)

// String returns the mode's name.
func (m Mode) String() string {
	switch m {
	case ModeTraditional:
		return "traditional"
	case ModePrL:
		return "prl"
	case ModePrLGreedy:
		return "prl-greedy"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Options configures the optimizer.
type Options struct {
	Mode Mode
	// G is the correlation model parameter (§4.2); the default 1 is the
	// fully correlated model the paper's experiments use.
	G int
	// RelTupleCost is the cost charged per tuple handled by a relational
	// operator (scan, join build/probe, output), in seconds. The paper
	// omits relational costs from its formulas; a small nonzero value
	// makes join ordering meaningful.
	RelTupleCost float64
	// FrontierCap bounds the Pareto frontier per DP state in ModePrL.
	FrontierCap int
	// BatchProbe lets the optimizer consider batched probe pushdown: the
	// batched variants of the probing methods and batched probe reducers.
	// It only takes effect against sources whose service can actually
	// batch (short-form probe fields or a batched invocation capability).
	BatchProbe bool
}

// DefaultOptions returns the defaults: PrL mode, fully correlated model.
func DefaultOptions() Options {
	return Options{Mode: ModePrL, G: 1, RelTupleCost: 1e-5, FrontierCap: 8}
}

// Result is the optimizer's output.
type Result struct {
	Plan plan.Node
	// EstCost is the plan's estimated total cost.
	EstCost float64
	// JoinTasks counts 2-way join optimization tasks performed — the
	// complexity measure of §6.
	JoinTasks int
}

// Optimizer optimizes one analyzed query. A query may join with several
// external text sources; each gets its own foreign-join placement in the
// order.
type Optimizer struct {
	a    *sqlparse.Analyzed
	cat  *sqlparse.Catalog
	opts Options

	tables   []string // == a.Tables
	tableBit map[string]uint32

	sources    []string // text source names, from-order
	sourceBit  map[string]uint32
	services   map[string]texservice.Service
	estimators map[string]*stats.Estimator
	numDocs    map[string]int

	foreignBy map[string][]int // table → indexes into a.Foreign
	predStats []stats.Estimate // per a.Foreign entry
	selStats  map[string]stats.SelectionStats

	// ctx carries the caller's trace context during OptimizeContext, so
	// per-candidate costing (textJoinCands) can attach spans. It is
	// context.Background() under plain Optimize.
	ctx context.Context

	joinTasks int
}

// New builds an optimizer for the query with a single service used for
// every text source the query mentions (the common case of one source).
// The estimator samples the service for foreign-predicate statistics at
// construction time.
func New(a *sqlparse.Analyzed, cat *sqlparse.Catalog, svc texservice.Service, est *stats.Estimator, opts Options) (*Optimizer, error) {
	services := map[string]texservice.Service{}
	estimators := map[string]*stats.Estimator{}
	for _, part := range a.Text {
		services[part.Source] = svc
		estimators[part.Source] = est
	}
	return NewMulti(a, cat, services, estimators, opts)
}

// NewMulti builds an optimizer with one service and estimator per text
// source the query mentions.
func NewMulti(a *sqlparse.Analyzed, cat *sqlparse.Catalog, services map[string]texservice.Service, estimators map[string]*stats.Estimator, opts Options) (*Optimizer, error) {
	if opts.G < 1 {
		opts.G = 1
	}
	if opts.FrontierCap <= 0 {
		opts.FrontierCap = 8
	}
	o := &Optimizer{
		a: a, cat: cat, opts: opts,
		tables:     a.Tables,
		tableBit:   map[string]uint32{},
		sourceBit:  map[string]uint32{},
		services:   services,
		estimators: estimators,
		numDocs:    map[string]int{},
		foreignBy:  map[string][]int{},
		selStats:   map[string]stats.SelectionStats{},
	}
	if len(o.tables) > 30 {
		return nil, fmt.Errorf("optimizer: too many tables (%d)", len(o.tables))
	}
	for i, t := range o.tables {
		o.tableBit[t] = 1 << uint(i)
	}
	if len(a.Text) > 30 {
		return nil, fmt.Errorf("optimizer: too many text sources (%d)", len(a.Text))
	}
	for i, part := range a.Text {
		src := part.Source
		o.sources = append(o.sources, src)
		o.sourceBit[src] = 1 << uint(i)
		svc := services[src]
		est := estimators[src]
		if svc == nil || est == nil {
			return nil, fmt.Errorf("optimizer: no service/estimator for text source %q", src)
		}
		d, err := svc.NumDocs()
		if err != nil {
			return nil, err
		}
		o.numDocs[src] = d
		if part.Sel != nil {
			st, err := est.Selection(part.Sel)
			if err != nil {
				return nil, err
			}
			o.selStats[src] = st
		}
	}
	for i, f := range a.Foreign {
		o.foreignBy[f.Table] = append(o.foreignBy[f.Table], i)
	}
	// Sample foreign-predicate statistics on the base tables, against
	// each predicate's own source.
	for _, f := range a.Foreign {
		base := cat.Tables[f.Table]
		e, err := o.estimators[f.Source].Predicate(base, unqualify(f.Column), f.Field)
		if err != nil {
			return nil, err
		}
		o.predStats = append(o.predStats, e)
	}
	return o, nil
}

// fullSrcMask is the bitmask with every text source joined.
func (o *Optimizer) fullSrcMask() uint32 {
	if len(o.sources) == 0 {
		return 0
	}
	return 1<<uint(len(o.sources)) - 1
}

func unqualify(col string) string {
	for i := len(col) - 1; i >= 0; i-- {
		if col[i] == '.' {
			return col[i+1:]
		}
	}
	return col
}

// cand is one plan candidate for a DP state.
type cand struct {
	node plan.Node
	card float64
	cost float64
	// probed marks the foreign predicates (bits indexing a.Foreign)
	// already applied as probe reductions: their selectivity is spent, so
	// downstream estimates must not count it again.
	probed uint32
}

// stateKey identifies a DP state: the set of joined relational tables and
// the set of text sources whose foreign join has been applied.
type stateKey struct {
	mask    uint32
	srcMask uint32
}

// Optimize runs the enumeration and returns the best complete plan.
func (o *Optimizer) Optimize() (*Result, error) {
	return o.OptimizeContext(context.Background())
}

// OptimizeContext is Optimize under a context: when the context carries
// an obs recorder, every per-candidate foreign-join costing emits a span
// ("optimize.textjoin") annotated with each applicable method's
// estimated cost and, for the probe-based methods, the §5-chosen probe
// columns — the paper's plan-selection decisions made visible per query.
func (o *Optimizer) OptimizeContext(ctx context.Context) (*Result, error) {
	o.ctx = ctx
	n := len(o.tables)
	if n == 0 {
		return nil, fmt.Errorf("optimizer: no relational tables")
	}
	frontiers := map[stateKey][]cand{}

	// Base states: single-table scans.
	for _, t := range o.tables {
		c, err := o.scanCand(t)
		if err != nil {
			return nil, err
		}
		key := stateKey{mask: o.tableBit[t]}
		frontiers[key] = o.addCand(frontiers[key], c)
	}

	full := uint32(1)<<uint(n) - 1
	fullSrc := o.fullSrcMask()
	// Enumerate by subset size. For each subset we first consider placing
	// the pending foreign joins here (in increasing joined-source count,
	// so several sources can be placed back to back at the same mask),
	// then extend every variant with each remaining relation.
	for size := 1; size <= n; size++ {
		for mask := uint32(1); mask <= full; mask++ {
			if popcount(mask) != size {
				continue
			}
			for sc := 0; sc <= len(o.sources); sc++ {
				for srcMask := uint32(0); srcMask <= fullSrc; srcMask++ {
					if popcount(srcMask) != sc {
						continue
					}
					for _, c := range frontiers[stateKey{mask: mask, srcMask: srcMask}] {
						if err := o.tryTextJoins(frontiers, mask, srcMask, c); err != nil {
							return nil, err
						}
					}
				}
			}
			if size == n {
				continue
			}
			for srcMask := uint32(0); srcMask <= fullSrc; srcMask++ {
				key := stateKey{mask: mask, srcMask: srcMask}
				cands := frontiers[key]
				if len(cands) == 0 {
					continue
				}
				for ti, t := range o.tables {
					bit := uint32(1) << uint(ti)
					if mask&bit != 0 {
						continue
					}
					nextKey := stateKey{mask: mask | bit, srcMask: srcMask}
					for _, left := range cands {
						exts, err := o.extend(left, t, srcMask)
						if err != nil {
							return nil, err
						}
						for _, e := range exts {
							frontiers[nextKey] = o.addCand(frontiers[nextKey], e)
						}
					}
				}
			}
		}
	}

	finalKey := stateKey{mask: full, srcMask: fullSrc}
	finals := frontiers[finalKey]
	if len(finals) == 0 {
		return nil, fmt.Errorf("optimizer: no complete plan found")
	}
	best := finals[0]
	for _, c := range finals[1:] {
		if c.cost < best.cost {
			best = c
		}
	}
	proj := &plan.Project{
		Est:     plan.Est{EstCard: best.card, EstCost: best.cost},
		Input:   best.node,
		Columns: o.a.OutputCols,
	}
	return &Result{Plan: proj, EstCost: best.cost, JoinTasks: o.joinTasks}, nil
}

// popcount counts set bits.
func popcount(x uint32) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// addCand inserts c into the frontier, pruning by mode.
//
// With a foreign join in the order, the output cardinality of a DP state
// is not order-independent (the text join multiplies rows by its fanout,
// and NK caps make the effect nonlinear), so keeping a single
// cheapest plan per state is not guaranteed optimal even without probes.
// ModeTraditional and ModePrL therefore keep a (cost, cardinality) Pareto
// frontier; ModePrLGreedy keeps the single cheapest plan — the paper's
// moderate-overhead discipline — and serves as the ablation showing what
// that costs.
func (o *Optimizer) addCand(frontier []cand, c cand) []cand {
	if math.IsInf(c.cost, 1) || math.IsNaN(c.cost) {
		return frontier
	}
	switch o.opts.Mode {
	case ModeTraditional, ModePrL:
		// Pareto: drop c if dominated; drop members c dominates. A plan
		// dominates only when it is at least as cheap, at least as small,
		// and has spent no more probe selectivity (probed subset) — a
		// less-probed plan keeps more reduction available downstream.
		out := frontier[:0]
		for _, f := range frontier {
			if f.cost <= c.cost && f.card <= c.card && f.probed&^c.probed == 0 {
				return frontier // dominated (or tied): keep existing
			}
			if !(c.cost <= f.cost && c.card <= f.card && c.probed&^f.probed == 0) {
				out = append(out, f)
			}
		}
		out = append(out, c)
		if len(out) > o.opts.FrontierCap {
			sort.Slice(out, func(i, j int) bool { return out[i].cost < out[j].cost })
			out = out[:o.opts.FrontierCap]
		}
		return out
	default: // PrLGreedy keeps the single cheapest plan per state.
		if len(frontier) == 0 || c.cost < frontier[0].cost {
			return []cand{c}
		}
		return frontier
	}
}

// tryTextJoins extends a candidate with every pending source's foreign
// join that is legal at this point (all of the source's foreign-predicate
// tables joined), adding the results to the corresponding states.
func (o *Optimizer) tryTextJoins(frontiers map[stateKey][]cand, mask, srcMask uint32, c cand) error {
	for si, src := range o.sources {
		bit := uint32(1) << uint(si)
		if srcMask&bit != 0 {
			continue
		}
		ready := true
		for _, f := range o.a.Foreign {
			if f.Source == src && o.tableBit[f.Table]&mask == 0 {
				ready = false
				break
			}
		}
		if !ready {
			continue
		}
		exts, err := o.textJoinCands(c, src)
		if err != nil {
			return err
		}
		doneKey := stateKey{mask: mask, srcMask: srcMask | bit}
		for _, e := range exts {
			frontiers[doneKey] = o.addCand(frontiers[doneKey], e)
		}
	}
	return nil
}
