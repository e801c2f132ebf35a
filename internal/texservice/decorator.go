package texservice

import (
	"context"

	"textjoin/internal/textidx"
)

// passThrough is the embeddable base of every decorator in this package
// (Cached, ProbeCache, Retrying, Faulty). It implements Service, every
// optional capability and Unwrap by delegating to the inner service, so a
// decorator defines only the operations it intercepts and cannot forget
// to forward the rest. A capability the inner service lacks is refused
// with its sentinel (ErrNoBatch, ErrNoStats, ErrNoIngest); SearchBatch
// and the statistics estimator treat that refusal as "degrade", so a
// decorated service without a capability behaves like the bare one.
type passThrough struct{ inner Service }

// Search implements Service.
func (p passThrough) Search(ctx context.Context, e textidx.Expr, form Form) (*Result, error) {
	return p.inner.Search(ctx, e, form)
}

// Retrieve implements Service.
func (p passThrough) Retrieve(ctx context.Context, id textidx.DocID) (textidx.Document, error) {
	return p.inner.Retrieve(ctx, id)
}

// NumDocs implements Service.
func (p passThrough) NumDocs() (int, error) { return p.inner.NumDocs() }

// MaxTerms implements Service.
func (p passThrough) MaxTerms() int { return p.inner.MaxTerms() }

// ShortFields implements Service.
func (p passThrough) ShortFields() []string { return p.inner.ShortFields() }

// Meter implements Service: the inner service's meter.
func (p passThrough) Meter() *Meter { return p.inner.Meter() }

// Unwrap exposes the decorated service, so serving layers can walk a
// decorator chain (e.g. a probe cache stacked on a search cache).
func (p passThrough) Unwrap() Service { return p.inner }

// BatchSearch implements BatchSearcher when the inner service does.
func (p passThrough) BatchSearch(ctx context.Context, exprs []textidx.Expr, form Form) ([]*Result, error) {
	b, ok := p.inner.(BatchSearcher)
	if !ok {
		return nil, ErrNoBatch
	}
	return b.BatchSearch(ctx, exprs, form)
}

// TermDocFrequency implements StatsProvider when the inner service does.
func (p passThrough) TermDocFrequency(ctx context.Context, field, term string) (int, error) {
	sp, ok := p.inner.(StatsProvider)
	if !ok {
		return 0, ErrNoStats
	}
	return sp.TermDocFrequency(ctx, field, term)
}

// Ingest implements Ingestor when the inner service does.
func (p passThrough) Ingest(ctx context.Context, ops []IngestOp) (*IngestResult, error) {
	return IngestInto(ctx, p.inner, ops)
}

// IndexVersion implements Versioned when the inner service does.
func (p passThrough) IndexVersion(ctx context.Context) (uint64, error) {
	v, ok := p.inner.(Versioned)
	if !ok {
		return 0, ErrNoIngest
	}
	return v.IndexVersion(ctx)
}

// PinSnapshot implements SnapshotPinner when the inner service does.
func (p passThrough) PinSnapshot(ctx context.Context) context.Context {
	return PinSnapshot(ctx, p.inner)
}

// SnapshotPinned implements PinProber when the inner service does.
func (p passThrough) SnapshotPinned(ctx context.Context) bool {
	return SnapshotPinned(ctx, p.inner)
}

// decorator is what every decorator offers by construction.
type decorator interface {
	Service
	BatchSearcher
	StatsProvider
	Ingestor
	Versioned
	SnapshotPinner
	PinProber
	Unwrap() Service
}

var _ = [...]decorator{passThrough{}, (*Cached)(nil), (*ProbeCache)(nil), (*Retrying)(nil), (*Faulty)(nil)}
