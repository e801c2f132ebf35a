package ingest

import (
	"context"
	"sort"
	"sync"

	"textjoin/internal/obs"
	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
)

// Live serves texservice reads over a mutable Store and implements the
// write capability (texservice.Ingestor). It is the mutable counterpart
// of texservice.Local: identical cost charging and result shapes, plus
// snapshot-isolated reads — a query pinned with PinSnapshot keeps one
// consistent view, captured at its first read, for all of its searches and
// retrievals no matter how many writes land while it runs.
type Live struct {
	store       *Store
	shortFields []string
	maxTerms    int
	meter       *texservice.Meter
}

// LiveOption configures a Live service.
type LiveOption func(*Live)

// WithShortFields sets the fields transmitted in short form (default
// title, author, year — matching texservice.Local).
func WithShortFields(fields ...string) LiveOption {
	return func(l *Live) { l.shortFields = fields }
}

// WithMaxTerms sets the per-search term limit M.
func WithMaxTerms(m int) LiveOption {
	return func(l *Live) { l.maxTerms = m }
}

// NewLive wraps a Store as a Service.
func NewLive(store *Store, opts ...LiveOption) *Live {
	l := &Live{
		store:       store,
		shortFields: []string{"title", "author", "year"},
		maxTerms:    texservice.DefaultMaxTerms,
		meter:       texservice.NewMeter(texservice.DefaultCosts()),
	}
	for _, opt := range opts {
		opt(l)
	}
	return l
}

// Store exposes the underlying store (servers and tests).
func (l *Live) Store() *Store { return l.store }

// pinKey keys a query's pin in a context, per store: two Live services
// over different stores pin independently.
type pinKey struct{ s *Store }

// pin is a query's snapshot pin. PinSnapshot installs it empty; the
// query's first read (or SnapshotPinned probe) captures the store's
// current view into it, once, and every later read reuses that view.
type pin struct {
	once sync.Once
	view *View
}

func (p *pin) resolve(s *Store) *View {
	p.once.Do(func() { p.view = s.CurrentView() })
	return p.view
}

// PinSnapshot returns a context whose reads against this service all use
// one view — snapshot isolation for a query's lifetime. The view is
// captured at the query's first read or SnapshotPinned probe, not here:
// the query still sees one version throughout and every write acked
// before it started, but the window in which a write can move the
// collection past the pin (which costs the query its cache access, see
// SnapshotPinned) starts when the query begins to read rather than when
// it begins to run. Pinning an already-pinned context is a no-op. Without
// a pin every call captures the latest acknowledged state.
func (l *Live) PinSnapshot(ctx context.Context) context.Context {
	if _, ok := ctx.Value(pinKey{l.store}).(*pin); ok {
		return ctx
	}
	return context.WithValue(ctx, pinKey{l.store}, &pin{})
}

// SnapshotPinned implements texservice.PinProber: it reports whether
// ctx carries a view pinned against this service's store that has
// fallen behind the store's current state. Caches above bypass such
// queries in both directions — their answers reflect the old view and
// must not enter (or be served from) the version-keyed cache. A pin
// still at the current state reads through the cache normally: its view
// matches the version entries are keyed on, and a write racing past
// this check is caught by the caches' fill guard (the write advances
// their version before the stale fill is attempted, or the entry is
// filled at — and correctly keyed on — the pre-write version).
//
// The probe resolves an unresolved pin: a cache that answers "not
// behind" may serve the query a current-version entry, so the version
// the query is held to must be fixed no later than that answer.
func (l *Live) SnapshotPinned(ctx context.Context) bool {
	p, ok := ctx.Value(pinKey{l.store}).(*pin)
	return ok && p.resolve(l.store).Seq() != l.store.Version()
}

// view resolves the context's pinned view, or captures the latest.
func (l *Live) view(ctx context.Context) *View {
	if p, ok := ctx.Value(pinKey{l.store}).(*pin); ok {
		return p.resolve(l.store)
	}
	return l.store.CurrentView()
}

// Search implements texservice.Service: a batch of one.
func (l *Live) Search(ctx context.Context, e textidx.Expr, form texservice.Form) (*texservice.Result, error) {
	return texservice.Single(l.search(ctx, "live.search", []textidx.Expr{e}, form))
}

// BatchSearch implements texservice.BatchSearcher.
func (l *Live) BatchSearch(ctx context.Context, exprs []textidx.Expr, form texservice.Form) ([]*texservice.Result, error) {
	return l.search(ctx, "live.batchsearch", exprs, form)
}

// search is Live's one request path: the expressions are evaluated in
// order against one view and charged as one invocation.
func (l *Live) search(ctx context.Context, span string, exprs []textidx.Expr, form texservice.Form) ([]*texservice.Result, error) {
	ctx, sp := obs.StartSpan(ctx, span)
	defer sp.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := texservice.CheckTermLimit(exprs, l.maxTerms); err != nil {
		return nil, err
	}
	v := l.view(ctx)
	out := make([]*texservice.Result, len(exprs))
	postings, docs := 0, 0
	for i, e := range exprs {
		hits, p, err := l.store.Search(v, e)
		if err != nil {
			return nil, err
		}
		r := &texservice.Result{Postings: p, Hits: make([]texservice.Hit, 0, len(hits))}
		for _, h := range hits {
			r.Hits = append(r.Hits, texservice.ShapeHit(h.ID, h.Doc, form, l.shortFields))
		}
		out[i] = r
		postings += p
		docs += len(r.Hits)
	}
	l.meter.ChargeSearch(ctx, postings, docs, form)
	if sp != nil {
		sp.SetAttr(texservice.QueryAttr(exprs), obs.Str("form", form.String()),
			obs.Int("postings", postings), obs.Int("hits", docs),
			obs.Int("view_seq", int(v.Seq())))
	}
	return out, nil
}

// Retrieve implements texservice.Service.
func (l *Live) Retrieve(ctx context.Context, id textidx.DocID) (textidx.Document, error) {
	if err := ctx.Err(); err != nil {
		return textidx.Document{}, err
	}
	doc, err := l.store.Retrieve(l.view(ctx), id)
	if err != nil {
		return textidx.Document{}, err
	}
	l.meter.ChargeRetrieve(ctx)
	return doc, nil
}

// TermDocFrequency implements texservice.StatsProvider (metadata
// traffic: no meter charge, approximate against the latest state).
func (l *Live) TermDocFrequency(ctx context.Context, field, term string) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	words := textidx.Tokenize(term)
	switch len(words) {
	case 0:
		return 0, nil
	case 1:
		return l.store.DocFrequency(field, words[0]), nil
	default:
		// Phrase frequencies need evaluation; run it against the current
		// view without charging the meter (like Local does).
		e, err := textidx.MakeExactPred(field, term)
		if err != nil {
			return 0, nil
		}
		hits, _, err := l.store.Search(l.store.CurrentView(), e)
		if err != nil {
			return 0, err
		}
		return len(hits), nil
	}
}

// Ingest implements texservice.Ingestor: durably apply the batch.
func (l *Live) Ingest(ctx context.Context, ops []texservice.IngestOp) (*texservice.IngestResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return l.store.Apply(ctx, ops)
}

// IndexVersion implements texservice.Versioned.
func (l *Live) IndexVersion(ctx context.Context) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return l.store.Version(), nil
}

// NumDocs implements texservice.Service: visible documents at the
// latest state.
func (l *Live) NumDocs() (int, error) { return l.store.NumDocs(), nil }

// MaxTerms implements texservice.Service.
func (l *Live) MaxTerms() int { return l.maxTerms }

// ShortFields implements texservice.Service (sorted, like Local).
func (l *Live) ShortFields() []string {
	out := append([]string(nil), l.shortFields...)
	sort.Strings(out)
	return out
}

// Meter implements texservice.Service.
func (l *Live) Meter() *texservice.Meter { return l.meter }

var (
	_ texservice.Service       = (*Live)(nil)
	_ texservice.Ingestor      = (*Live)(nil)
	_ texservice.Versioned     = (*Live)(nil)
	_ texservice.StatsProvider = (*Live)(nil)
	_ texservice.BatchSearcher = (*Live)(nil)
)
