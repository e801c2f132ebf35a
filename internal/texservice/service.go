// Package texservice is the loose-integration boundary between the
// database system and the external text retrieval system. The database
// side sees only this interface — search and retrieve operations — exactly
// as §2.3 of the paper assumes: the text system's internal structures are
// inaccessible, and joins with text data must be executed as instantiated
// selections through Search.
//
// Every operation is charged to a Meter using the paper's calibrated cost
// model (§4.1): invocation cost c_i per search, processing cost c_p per
// posting, and transmission cost c_s / c_l per short-form / long-form
// document. The meter gives deterministic "seconds" that reproduce the
// paper's experiment shapes independent of the machine the code runs on.
package texservice

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"

	"textjoin/internal/obs"
	"textjoin/internal/textidx"
)

// Form selects how much of each matching document a search transmits.
type Form uint8

const (
	// FormShort returns the docid and the short fields (as LOCIS-style
	// systems do). Probes use this form.
	FormShort Form = iota
	// FormLong returns the entire document; per the paper each long-form
	// transmission is far more expensive (a separate connection).
	FormLong
)

// String returns the form's name.
func (f Form) String() string {
	if f == FormLong {
		return "long"
	}
	return "short"
}

// Costs holds the calibrated cost constants of §4.1 (all in seconds).
type Costs struct {
	CI float64 // invocation cost per search
	CP float64 // processing cost per posting
	CS float64 // transmission cost per short-form document
	CL float64 // transmission cost per long-form document
	CA float64 // relational text processing cost per document (charged by the join side)
}

// DefaultCosts are the constants measured on the integrated
// OpenODB–Mercury system: c_i=3, c_p=1e-5, c_s=0.015, c_l=4. The paper
// does not report its calibrated c_a; we use a small per-document constant
// consistent with "the relational database system can quickly evaluate
// them" (§3.3).
func DefaultCosts() Costs {
	return Costs{CI: 3, CP: 0.00001, CS: 0.015, CL: 4, CA: 0.005}
}

// Service is the database system's view of an external text source.
// Every data operation takes a context: the text system is remote in the
// integration the paper studies, so calls can be slow, hung, or worth
// abandoning, and the caller's deadline/cancellation must reach the wire.
//
// Besides the search and retrieve of loose integration (§2), every
// service has the §8 extensions (batched invocation, exported
// statistics) and the write path (ingest, index version, snapshot pins).
// A service that cannot offer one refuses it with its sentinel, the one
// way to say "not supported" (see Refused).
type Service interface {
	BatchSearcher
	StatsProvider
	Ingestor
	Versioned
	SnapshotPinner
	PinProber
	// Search evaluates a Boolean expression and transmits the matching
	// documents in the requested form. It fails when the expression uses
	// more basic search terms than the system's limit (MaxTerms).
	Search(ctx context.Context, e textidx.Expr, form Form) (*Result, error)
	// Retrieve fetches the long form of one document by docid.
	Retrieve(ctx context.Context, id textidx.DocID) (textidx.Document, error)
	// NumDocs returns the collection size (the paper's D).
	NumDocs() (int, error)
	// MaxTerms returns the maximum number of basic search terms per
	// search (the paper's M; 70 for Mercury).
	MaxTerms() int
	// ShortFields returns the document fields included in short-form
	// results. Relational text processing (§3.2) is only applicable to
	// join predicates over these fields.
	ShortFields() []string
	// Meter returns the cost meter charged by this service.
	Meter() *Meter
}

// Usage is a snapshot of accumulated resource consumption.
type Usage struct {
	Searches  int     // number of Search invocations
	Retrieves int     // number of Retrieve invocations
	Postings  int     // total postings processed by the text system
	ShortDocs int     // documents transmitted in short form
	LongDocs  int     // documents transmitted in long form (searches + retrieves)
	RTPDocs   int     // documents string-matched relationally (charged c_a)
	Retries   int     // failed invocations that were retried (each re-charged c_i)
	Hedges    int     // speculative (hedged) invocations that lost their race (each charged c_i)
	Cost      float64 // total simulated cost in seconds (sum of all work)
	// CritCost is the critical-path simulated cost in seconds: sequential
	// operations charge it exactly like Cost, but a scatter-gather search
	// fanned out over shards charges only its most expensive shard — the
	// elapsed time under perfect parallelism. CritCost == Cost for any
	// unsharded service; CritCost ≤ Cost always.
	CritCost float64
}

// Add returns the sum of two usages.
func (u Usage) Add(v Usage) Usage {
	return Usage{
		Searches:  u.Searches + v.Searches,
		Retrieves: u.Retrieves + v.Retrieves,
		Postings:  u.Postings + v.Postings,
		ShortDocs: u.ShortDocs + v.ShortDocs,
		LongDocs:  u.LongDocs + v.LongDocs,
		RTPDocs:   u.RTPDocs + v.RTPDocs,
		Retries:   u.Retries + v.Retries,
		Hedges:    u.Hedges + v.Hedges,
		Cost:      u.Cost + v.Cost,
		CritCost:  u.CritCost + v.CritCost,
	}
}

// Sub returns u minus v; useful for measuring one phase of execution.
func (u Usage) Sub(v Usage) Usage {
	return Usage{
		Searches:  u.Searches - v.Searches,
		Retrieves: u.Retrieves - v.Retrieves,
		Postings:  u.Postings - v.Postings,
		ShortDocs: u.ShortDocs - v.ShortDocs,
		LongDocs:  u.LongDocs - v.LongDocs,
		RTPDocs:   u.RTPDocs - v.RTPDocs,
		Retries:   u.Retries - v.Retries,
		Hedges:    u.Hedges - v.Hedges,
		Cost:      u.Cost - v.Cost,
		CritCost:  u.CritCost - v.CritCost,
	}
}

// Meter accumulates Usage under the paper's cost model. It is safe for
// concurrent use.
//
// Charge methods take the operation's context: the charge is applied to
// this meter and mirrored into the per-query meter the context carries,
// if any (see WithQueryMeter) — that is how a query's share of a shared
// service's traffic is isolated without double-charging.
type Meter struct {
	mu    sync.Mutex
	costs Costs
	usage Usage

	// budget, when positive, arms a cost cap: the first charge that
	// pushes usage.Cost past it invokes onExceed exactly once (outside
	// the lock). Used by gateways to abort runaway queries.
	budget   float64
	exceeded bool
	onExceed func()
}

// NewMeter returns a meter charging the given constants.
func NewMeter(costs Costs) *Meter { return &Meter{costs: costs} }

// Costs returns the constants this meter charges.
func (m *Meter) Costs() Costs { return m.costs }

// SetBudget arms a cost cap on the meter: the first charge that pushes
// accumulated Cost past limit calls onExceed, exactly once. A typical
// onExceed is a context.CancelFunc, turning the cap into an abort of the
// in-flight work that is charging the meter. A non-positive limit
// disarms the budget.
func (m *Meter) SetBudget(limit float64, onExceed func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.budget = limit
	m.exceeded = false
	m.onExceed = onExceed
}

// BudgetExceeded reports whether an armed budget has fired.
func (m *Meter) BudgetExceeded() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.exceeded
}

// accumulate applies a precomputed usage delta (a mirrored charge or a
// merge of another meter) and fires the budget callback if the delta
// crossed an armed cost cap.
func (m *Meter) accumulate(delta Usage) {
	m.mu.Lock()
	m.usage = m.usage.Add(delta)
	fire := m.armBudgetLocked()
	m.mu.Unlock()
	if fire != nil {
		fire()
	}
}

// armBudgetLocked checks the cost cap and returns the callback to run
// (once, outside the lock) if this charge crossed it.
func (m *Meter) armBudgetLocked() func() {
	if m.budget <= 0 || m.exceeded || m.usage.Cost <= m.budget {
		return nil
	}
	m.exceeded = true
	return m.onExceed
}

// SearchCost is the simulated cost of one search that processed the
// given postings and transmitted nDocs documents in the given form —
// exported so instrumentation (spans, EXPLAIN ANALYZE) can attribute a
// model cost to an individual call without re-deriving the formula.
func (c Costs) SearchCost(postings, nDocs int, form Form) float64 {
	cost := c.CI + c.CP*float64(postings)
	if form == FormLong {
		return cost + c.CL*float64(nDocs)
	}
	return cost + c.CS*float64(nDocs)
}

// ChargeSearch records one search that processed the given number of
// postings and transmitted nDocs documents in the given form.
func (m *Meter) ChargeSearch(ctx context.Context, postings, nDocs int, form Form) {
	cost := m.costs.SearchCost(postings, nDocs, form)
	delta := Usage{Searches: 1, Postings: postings, Cost: cost, CritCost: cost}
	if form == FormLong {
		delta.LongDocs = nDocs
	} else {
		delta.ShortDocs = nDocs
	}
	m.accumulate(delta)
	mirror(ctx, m, delta)
}

// ScatterPart is one shard's share of a scatter-gather search: the
// postings it processed and the documents it transmitted.
type ScatterPart struct {
	Postings int
	Docs     int
}

// ChargeScatter records one logical search fanned out concurrently over
// len(parts) shards. Every shard pays its own invocation, processing and
// transmission charges (total Cost is the sum — the work really happens
// on every backend), but the shards run in parallel, so CritCost grows
// only by the most expensive part: the paper's cost model charges c_i per
// invocation, and a scatter-gather turns N sequential c_i charges into
// max-of-shards elapsed time.
func (m *Meter) ChargeScatter(ctx context.Context, parts []ScatterPart, form Form) {
	var delta Usage
	var crit float64
	for _, p := range parts {
		delta.Searches++
		delta.Postings += p.Postings
		cost := m.costs.SearchCost(p.Postings, p.Docs, form)
		delta.Cost += cost
		if cost > crit {
			crit = cost
		}
		if form == FormLong {
			delta.LongDocs += p.Docs
		} else {
			delta.ShortDocs += p.Docs
		}
	}
	delta.CritCost = crit
	m.accumulate(delta)
	mirror(ctx, m, delta)
}

// ChargeRetrieve records one long-form document retrieval.
func (m *Meter) ChargeRetrieve(ctx context.Context) {
	delta := Usage{Retrieves: 1, LongDocs: 1, Cost: m.costs.CL, CritCost: m.costs.CL}
	m.accumulate(delta)
	mirror(ctx, m, delta)
}

// ChargeRetry records one failed invocation that is about to be resent.
// The wasted attempt still paid the invocation overhead, so each retry is
// charged another c_i on top of whatever the eventual success charges.
func (m *Meter) ChargeRetry(ctx context.Context) {
	delta := Usage{Retries: 1, Cost: m.costs.CI, CritCost: m.costs.CI}
	m.accumulate(delta)
	mirror(ctx, m, delta)
}

// ChargeHedge records one speculative (hedged) invocation that lost its
// race: the backend it was sent to really did the invocation work, so the
// extra c_i lands in total Cost, but the hedge ran in parallel with the
// winning attempt, so the critical path — the elapsed time the query
// observed — grows by nothing. This is the accounting dual of
// ChargeRetry: a retry is sequential waste (Cost and CritCost), a hedge
// is parallel insurance (Cost only).
func (m *Meter) ChargeHedge(ctx context.Context) {
	delta := Usage{Hedges: 1, Cost: m.costs.CI}
	m.accumulate(delta)
	mirror(ctx, m, delta)
}

// ChargeRTP records relational string matching over nDocs documents
// (§3.2's SQL-side processing, the c_a constant).
func (m *Meter) ChargeRTP(ctx context.Context, nDocs int) {
	cost := m.costs.CA * float64(nDocs)
	delta := Usage{RTPDocs: nDocs, Cost: cost, CritCost: cost}
	m.accumulate(delta)
	mirror(ctx, m, delta)
}

// Snapshot returns the accumulated usage.
func (m *Meter) Snapshot() Usage {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.usage
}

// Reset zeroes the accumulated usage and re-arms any budget.
func (m *Meter) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.usage = Usage{}
	m.exceeded = false
}

// Corpus is one readable state of an in-process collection: what a Local
// service evaluates and fetches from. A frozen *textidx.Index is one; a
// live store's view of its base and delta is another.
type Corpus interface {
	// Eval returns the matching docids, ascending, and the postings the
	// evaluation processed.
	Eval(e textidx.Expr) (textidx.EvalResult, error)
	// Doc returns the document with the given id, or an error when the
	// state holds none.
	Doc(id textidx.DocID) (textidx.Document, error)
	// DocFrequency returns the number of documents whose field contains
	// the one word.
	DocFrequency(field, word string) int
	// NumDocs returns the collection size.
	NumDocs() int
}

// Local serves searches from an in-process Corpus, resolved per request.
// It implements Service.
type Local struct {
	// read resolves the state a request reads; the context lets a live
	// backend hold a query to the view it pinned.
	read func(context.Context) Corpus
	// The span names: <layer>.search, <layer>.batchsearch, <layer>.retrieve.
	searchSpan, batchSpan, retrieveSpan string
	// shortFields are the fields included in short-form results, sorted.
	shortFields []string
	maxTerms    int
	meter       *Meter
}

// LocalOption configures a Local service.
type LocalOption func(*Local)

// WithShortFields sets the fields transmitted in short form.
func WithShortFields(fields ...string) LocalOption {
	return func(l *Local) { l.shortFields = fields }
}

// WithMaxTerms sets the per-search term limit M.
func WithMaxTerms(m int) LocalOption {
	return func(l *Local) { l.maxTerms = m }
}

// DefaultMaxTerms is Mercury's limit of 70 search terms per query.
const DefaultMaxTerms = 70

// NewLocal wraps a frozen index as a Service.
func NewLocal(ix *textidx.Index, opts ...LocalOption) (*Local, error) {
	if !ix.Frozen() {
		return nil, fmt.Errorf("texservice: index must be frozen")
	}
	return NewCorpusService("local", func(context.Context) Corpus { return ix }, opts...), nil
}

// NewCorpusService serves, for each request, the Corpus read resolves
// from the request's context. layer prefixes the span names. Default
// short fields are title, author and year (the typical bibliographic
// short record).
func NewCorpusService(layer string, read func(context.Context) Corpus, opts ...LocalOption) *Local {
	l := &Local{
		read:         read,
		searchSpan:   layer + ".search",
		batchSpan:    layer + ".batchsearch",
		retrieveSpan: layer + ".retrieve",
		shortFields:  []string{"title", "author", "year"},
		maxTerms:     DefaultMaxTerms,
		meter:        NewMeter(DefaultCosts()),
	}
	for _, opt := range opts {
		opt(l)
	}
	l.shortFields = slices.Clone(l.shortFields)
	sort.Strings(l.shortFields)
	return l
}

// Search implements Service: a batch of one. The context is honored even
// though the backend is in-process, so decorators and tests see uniform
// semantics.
func (l *Local) Search(ctx context.Context, e textidx.Expr, form Form) (*Result, error) {
	return Single(l.search(ctx, l.searchSpan, []textidx.Expr{e}, form))
}

// search is Local's one request path: the expressions are evaluated in
// order against one state and charged as one invocation (batched
// invocation, §8).
func (l *Local) search(ctx context.Context, span string, exprs []textidx.Expr, form Form) ([]*Result, error) {
	ctx, sp := obs.StartSpan(ctx, span)
	defer sp.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := CheckTermLimit(exprs, l.maxTerms); err != nil {
		return nil, err
	}
	c := l.read(ctx)
	out := make([]*Result, len(exprs))
	postings, docs := 0, 0
	for i, e := range exprs {
		res, err := c.Eval(e)
		if err != nil {
			return nil, err
		}
		r, err := l.shape(c, res.Docs, form)
		if err != nil {
			return nil, err
		}
		r.Postings = res.Postings
		out[i] = r
		postings += res.Postings
		docs += len(r.Hits)
	}
	l.meter.ChargeSearch(ctx, postings, docs, form)
	if sp != nil {
		sp.SetAttr(QueryAttr(exprs), obs.Str("form", form.String()),
			obs.Int("postings", postings), obs.Int("hits", docs),
			obs.F64("cost", l.meter.Costs().SearchCost(postings, docs, form)))
	}
	return out, nil
}

// shape is the result Local transmits for the matching documents: in
// short form the short fields, in long form the union of the documents'
// fields, sorted. Every hit's values share one backing array.
func (l *Local) shape(c Corpus, ids []textidx.DocID, form Form) (*Result, error) {
	var docs []textidx.Document // long form: read once to learn the fields
	fields := l.shortFields
	if form == FormLong {
		docs = make([]textidx.Document, len(ids))
		for i, id := range ids {
			doc, err := c.Doc(id)
			if err != nil {
				return nil, err
			}
			docs[i] = doc
		}
		fields = fieldUnion(docs)
	}
	r := &Result{Fields: fields, Hits: make([]Hit, len(ids))}
	nf := len(fields)
	vals := make([]string, len(ids)*nf)
	for i, id := range ids {
		var doc textidx.Document
		if docs != nil {
			doc = docs[i]
		} else if d, err := c.Doc(id); err != nil {
			return nil, err
		} else {
			doc = d
		}
		v := vals[i*nf : (i+1)*nf : (i+1)*nf]
		for j, f := range fields {
			v[j] = doc.Fields[f]
		}
		r.Hits[i] = Hit{ID: id, ExtID: doc.ExtID, Values: v}
	}
	return r, nil
}

// fieldUnion returns the names of the fields any of the documents has,
// sorted.
func fieldUnion(docs []textidx.Document) []string {
	var out []string
	seen := map[string]bool{}
	for _, doc := range docs {
		for f := range doc.Fields {
			if !seen[f] {
				seen[f] = true
				out = append(out, f)
			}
		}
	}
	sort.Strings(out)
	return out
}

// QueryAttr labels a search span with what was asked: the expression of a
// single search, the number of expressions of a batch.
func QueryAttr(exprs []textidx.Expr) obs.Attr {
	if len(exprs) == 1 {
		return obs.Str("query", exprs[0].String())
	}
	return obs.Int("queries", len(exprs))
}

// Retrieve implements Service.
func (l *Local) Retrieve(ctx context.Context, id textidx.DocID) (textidx.Document, error) {
	ctx, sp := obs.StartSpan(ctx, l.retrieveSpan)
	defer sp.End()
	if err := ctx.Err(); err != nil {
		return textidx.Document{}, err
	}
	doc, err := l.read(ctx).Doc(id)
	if err != nil {
		return textidx.Document{}, err
	}
	l.meter.ChargeRetrieve(ctx)
	if sp != nil {
		sp.SetAttr(obs.Int("docid", int(id)), obs.F64("cost", l.meter.Costs().CL))
	}
	return doc, nil
}

// Ingest implements Ingestor: a Local serves a collection it cannot
// write, so it refuses with ErrNoIngest.
func (l *Local) Ingest(context.Context, []IngestOp) (*IngestResult, error) {
	return nil, ErrNoIngest
}

// IndexVersion implements Versioned: refused with ErrNoIngest, as is
// every write.
func (l *Local) IndexVersion(context.Context) (uint64, error) { return 0, ErrNoIngest }

// PinSnapshot implements SnapshotPinner: every read of a collection that
// never changes sees one state, so there is nothing to pin.
func (l *Local) PinSnapshot(ctx context.Context) context.Context { return ctx }

// SnapshotPinned implements PinProber: a Local never pins.
func (l *Local) SnapshotPinned(context.Context) bool { return false }

// NumDocs implements Service: the size of the latest state.
func (l *Local) NumDocs() (int, error) { return l.read(context.Background()).NumDocs(), nil }

// MaxTerms implements Service.
func (l *Local) MaxTerms() int { return l.maxTerms }

// Meter implements Service.
func (l *Local) Meter() *Meter { return l.meter }

// ShortFields returns the fields included in short-form results, sorted.
func (l *Local) ShortFields() []string { return slices.Clone(l.shortFields) }

// Index exposes the frozen index a NewLocal service serves (tests use it
// as their oracle's collection), or nil when the service reads some other
// Corpus.
func (l *Local) Index() *textidx.Index {
	ix, _ := l.read(context.Background()).(*textidx.Index)
	return ix
}

var (
	_ Service = (*Local)(nil)
	_ Corpus  = (*textidx.Index)(nil)
)
