package core

import (
	"context"
	"fmt"

	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
)

// inertService is the text service used for pure relational queries: it
// provides the cost constants the optimizer needs and rejects any actual
// text operation, which such queries never issue; every §8 extension and
// the write path are refused with their sentinels.
type inertService struct{}

var inertMeter = texservice.NewMeter(texservice.DefaultCosts())

func (inertService) Search(context.Context, textidx.Expr, texservice.Form) (*texservice.Result, error) {
	return nil, fmt.Errorf("core: query has no text source")
}

func (inertService) Retrieve(context.Context, textidx.DocID) (textidx.Document, error) {
	return textidx.Document{}, fmt.Errorf("core: query has no text source")
}

func (inertService) BatchSearch(context.Context, []textidx.Expr, texservice.Form) ([]*texservice.Result, error) {
	return nil, texservice.ErrNoBatch
}

func (inertService) TermDocFrequency(context.Context, string, string) (int, error) {
	return 0, texservice.ErrNoStats
}

func (inertService) Ingest(context.Context, []texservice.IngestOp) (*texservice.IngestResult, error) {
	return nil, texservice.ErrNoIngest
}

func (inertService) IndexVersion(context.Context) (uint64, error) {
	return 0, texservice.ErrNoIngest
}

func (inertService) PinSnapshot(ctx context.Context) context.Context { return ctx }

func (inertService) SnapshotPinned(context.Context) bool { return false }

func (inertService) NumDocs() (int, error) { return 0, nil }

func (inertService) MaxTerms() int { return texservice.DefaultMaxTerms }

func (inertService) ShortFields() []string { return nil }

func (inertService) Meter() *texservice.Meter { return inertMeter }

var _ texservice.Service = inertService{}
