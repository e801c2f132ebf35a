package texservice

import (
	"context"

	"textjoin/internal/textidx"
)

// Forward is the embeddable base of every decorator (Cached, ProbeCache,
// Retrying, Faulty in this package). It implements Service by promotion
// from the inner service, and every optional capability and Unwrap by
// delegating to it, so a decorator defines only the operations it
// intercepts and cannot forget to forward the rest. A capability the
// inner service lacks is refused with its sentinel (ErrNoBatch,
// ErrNoStats, ErrNoIngest); SearchBatch and the statistics estimator
// treat that refusal as "degrade", so a decorated service without a
// capability behaves like the bare one.
type Forward struct{ Service }

// Unwrap exposes the decorated service, so serving layers can walk a
// decorator chain (e.g. a probe cache stacked on a search cache).
func (f Forward) Unwrap() Service { return f.Service }

// BatchSearch implements BatchSearcher when the inner service does.
func (f Forward) BatchSearch(ctx context.Context, exprs []textidx.Expr, form Form) ([]*Result, error) {
	b, ok := f.Service.(BatchSearcher)
	if !ok {
		return nil, ErrNoBatch
	}
	return b.BatchSearch(ctx, exprs, form)
}

// TermDocFrequency implements StatsProvider when the inner service does.
func (f Forward) TermDocFrequency(ctx context.Context, field, term string) (int, error) {
	sp, ok := f.Service.(StatsProvider)
	if !ok {
		return 0, ErrNoStats
	}
	return sp.TermDocFrequency(ctx, field, term)
}

// Ingest implements Ingestor when the inner service does.
func (f Forward) Ingest(ctx context.Context, ops []IngestOp) (*IngestResult, error) {
	return IngestInto(ctx, f.Service, ops)
}

// IndexVersion implements Versioned when the inner service does.
func (f Forward) IndexVersion(ctx context.Context) (uint64, error) {
	v, ok := f.Service.(Versioned)
	if !ok {
		return 0, ErrNoIngest
	}
	return v.IndexVersion(ctx)
}

// PinSnapshot implements SnapshotPinner when the inner service does.
func (f Forward) PinSnapshot(ctx context.Context) context.Context {
	return PinSnapshot(ctx, f.Service)
}

// SnapshotPinned implements PinProber when the inner service does.
func (f Forward) SnapshotPinned(ctx context.Context) bool {
	return SnapshotPinned(ctx, f.Service)
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

var _ = [...]decorator{Forward{}, (*Cached)(nil), (*ProbeCache)(nil), (*Retrying)(nil), (*Faulty)(nil)}
