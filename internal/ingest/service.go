package ingest

import (
	"context"
	"sync"

	"textjoin/internal/texservice"
)

// Live is texservice.Local over a mutable Store's views, plus the write
// capability (texservice.Ingestor) and snapshot-isolated reads: a query
// pinned with PinSnapshot keeps one consistent view, captured at its
// first read, for all of its searches and retrievals no matter how many
// writes land while it runs. Searches, charges and hit shapes are
// Local's; its spans are named live.search, live.batchsearch and
// live.retrieve.
type Live struct {
	*texservice.Local
	store *Store
}

// WithShortFields sets the fields transmitted in short form (default
// title, author, year).
var WithShortFields = texservice.WithShortFields

// NewLive wraps a Store as a Service.
func NewLive(store *Store, opts ...texservice.LocalOption) *Live {
	l := &Live{store: store}
	l.Local = texservice.NewCorpusService("live", l.read, opts...)
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

// read resolves the context's pinned view, or captures the latest.
func (l *Live) read(ctx context.Context) texservice.Corpus {
	if p, ok := ctx.Value(pinKey{l.store}).(*pin); ok {
		return p.resolve(l.store)
	}
	return l.store.CurrentView()
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

var _ texservice.Service = (*Live)(nil)
