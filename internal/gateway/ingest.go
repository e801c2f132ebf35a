package gateway

import (
	"context"
	"fmt"
	"sort"

	"textjoin/internal/obs"
	"textjoin/internal/texservice"
)

// Live-ingest surface: the gateway routes document writes to a text
// source's service stack. Writes enter at the TOP of the decorator chain
// (the same stack queries read through), so the cache decorators see
// every write on its way down and re-key themselves to the post-write
// index version — a query arriving after the ack can never be answered
// from a pre-write cache entry.

// IngestRequest is one write batch addressed to a text source.
type IngestRequest struct {
	// Source names the text source to write to. It may be empty when the
	// engine has exactly one registered source.
	Source string `json:"source,omitempty"`
	// Ops are the puts and deletes, applied in order under one WAL
	// commit.
	Ops []texservice.IngestOp `json:"ops"`
}

// IngestResponse is the durable acknowledgement.
type IngestResponse struct {
	// Source is the text source written to (resolved when the request
	// left it empty).
	Source string `json:"source"`
	// Ack is the backend's acknowledgement: the last WAL sequence number
	// of the batch, how many shard-local applications it caused, and the
	// post-write index version.
	Ack texservice.IngestResult `json:"ack"`
}

// Ingest applies a write batch to the named text source. The call
// returns only after the backend has durably acknowledged the batch
// (WAL fsync); the error is *texservice.ErrNoIngest-wrapped when the
// source's backend is read-only (a frozen snapshot service).
func (g *Gateway) Ingest(ctx context.Context, req IngestRequest) (*IngestResponse, error) {
	source, svc, err := g.resolveSource(req.Source)
	if err != nil {
		g.ctrs.ingestFailed.Add(1)
		return nil, err
	}
	if err := texservice.ValidateIngest(req.Ops); err != nil {
		g.ctrs.ingestFailed.Add(1)
		return nil, err
	}
	ctx, sp := obs.StartSpan(ctx, "gateway.ingest")
	defer sp.End()
	ack, err := svc.Ingest(ctx, req.Ops)
	if err != nil {
		g.ctrs.ingestFailed.Add(1)
		return nil, fmt.Errorf("gateway: ingest into %q: %w", source, err)
	}
	g.ctrs.ingestBatches.Add(1)
	g.ctrs.ingestOps.Add(uint64(len(req.Ops)))
	if sp != nil {
		sp.SetAttr(obs.Str("source", source), obs.Int("ops", len(req.Ops)),
			obs.Int("version", int(ack.Version)))
	}
	return &IngestResponse{Source: source, Ack: *ack}, nil
}

// resolveSource maps a (possibly empty) source name to the engine's
// decorated service stack for it.
func (g *Gateway) resolveSource(name string) (string, texservice.Service, error) {
	text := g.eng.Catalog().Text
	if name == "" {
		if len(text) != 1 {
			var names []string
			for n := range text {
				names = append(names, n)
			}
			sort.Strings(names)
			return "", nil, fmt.Errorf("gateway: ingest needs a source name (registered: %v)", names)
		}
		for n := range text {
			name = n
		}
	}
	svc := g.eng.TextService(name)
	if svc == nil {
		return "", nil, fmt.Errorf("gateway: unknown text source %q", name)
	}
	return name, svc, nil
}
