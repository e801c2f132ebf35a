// Package shard implements a document-partitioned federation of text
// backends behind the texservice.Service interface: the distribution
// layer that scales the paper's single Mercury server to N backends
// without any join method noticing.
//
// The corpus is hash-partitioned by docid (textidx's modulo partition,
// which is invertible by arithmetic — see textidx.Partition), so every
// document lives on exactly one shard and the union of the shards is
// exactly the original collection. Search scatters the unchanged Boolean
// expression to every shard concurrently and k-way-merges the sorted
// per-shard results back into global docid order; Retrieve routes the
// point lookup to the owning shard. Boolean search distributes over a
// disjoint partition of the collection — eval(e, D) = ⊎_k eval(e, D_k) —
// so a sharded federation is bit-for-bit faithful to the single-server
// setting the paper studies, while the invocations that its cost model
// charges c_i for now overlap in time.
//
// Cost accounting follows that parallelism: each shard's invocation,
// processing and transmission charges are summed into Usage.Cost (the
// work really happens on every backend), but Usage.CritCost grows only
// by the most expensive shard of each fan-out — the elapsed time under
// perfect parallelism (see Meter.ChargeScatter).
//
// Transient shard failures are retried per shard by wrapping each backend
// in texservice.Retrying (seeded with texservice.DeriveSeed, so the shards
// back off independently) before composing them, and the federation
// itself degrades in one of two modes: strict (default) fails the whole
// search when any shard fails, best-effort drops the failed shards'
// documents and marks the result Partial.
package shard

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"textjoin/internal/obs"
	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
)

// Sharded is a document-partitioned federation of text backends. It
// implements texservice.Service and is safe for concurrent use.
type Sharded struct {
	shards      []texservice.Service
	meter       *texservice.Meter
	bestEffort  bool
	maxTerms    int
	shortFields []string
}

// Option configures a Sharded federation.
type Option func(*config)

type config struct {
	bestEffort bool
}

// WithBestEffort switches partial-failure handling from strict (any shard
// failure fails the search) to best-effort (failed shards' documents are
// dropped and the result is marked Partial).
func WithBestEffort() Option {
	return func(c *config) { c.bestEffort = true }
}

// New composes shard backends into a federation. The slice order is the
// partition order: shards[k] must hold the documents with global docid ≡ k
// (mod len(shards)), as textidx.Partition produces. All shards must agree
// on their short-form fields; the federation's term limit is the smallest
// shard limit. The federation charges its fan-outs to a fresh root meter
// with default costs, which is what the database side reads; each
// shard's own meter is still charged by its backend (exactly like the
// remote server's local meter in the client/server split).
func New(shards []texservice.Service, opts ...Option) (*Sharded, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("shard: federation needs at least one shard")
	}
	var cfg config
	for _, opt := range opts {
		opt(&cfg)
	}
	backends := append([]texservice.Service(nil), shards...)
	short, maxTerms, err := texservice.CheckMembers("shard", backends)
	if err != nil {
		return nil, err
	}
	return &Sharded{
		shards:      backends,
		meter:       texservice.NewMeter(texservice.DefaultCosts()),
		bestEffort:  cfg.bestEffort,
		maxTerms:    maxTerms,
		shortFields: short,
	}, nil
}

// BestEffort reports whether partial shard failure degrades gracefully
// instead of failing the search.
func (s *Sharded) BestEffort() bool { return s.bestEffort }

// scatter runs f concurrently against every shard and returns each
// shard's value and error, indexed by shard. In strict mode the first
// failure cancels the remaining shards' calls. The per-query meter is
// detached from the shard calls' context: each backend charges its own
// local meter, and the query-visible accounting is the root meter's
// single ChargeScatter — mirroring both would double-charge the query.
func scatter[T any](ctx context.Context, s *Sharded, f func(ctx context.Context, k int, svc texservice.Service) (T, error)) ([]T, []error) {
	ctx, cancel := context.WithCancel(texservice.DetachQueryMeter(ctx))
	defer cancel()
	vals := make([]T, len(s.shards))
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for k, svc := range s.shards {
		wg.Add(1)
		go func(k int, svc texservice.Service) {
			defer wg.Done()
			legCtx, leg := obs.StartSpan(ctx, "shard.leg")
			v, err := f(legCtx, k, svc)
			if leg != nil {
				leg.SetAttr(obs.Int("shard", k), obs.Str("err", errString(err)))
				leg.End()
			}
			vals[k], errs[k] = v, err
			if err != nil && !s.bestEffort {
				cancel() // strict: no point finishing the other shards
			}
		}(k, svc)
	}
	wg.Wait()
	return vals, errs
}

// errString renders an error for a span attribute ("" when nil).
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// gather folds per-shard outcomes under the failure mode (strict is
// true for writes, which are always strict): in strict mode any error
// aborts; in best-effort mode failed shards are dropped unless every
// shard failed. A shard's refusal (texservice.Refused) is the
// federation's refusal in either mode — an answer, never a dropped
// shard. It returns the indices of the successful shards and whether
// any was dropped. The reported error is the first of the highest
// severity: in strict mode the first failing shard cancels the rest, and
// their "context canceled" must not mask why.
func (s *Sharded) gather(op string, strict bool, errs []error) (ok []int, partial bool, err error) {
	var firstErr error
	firstShard := -1
	for k, e := range errs {
		if e == nil {
			ok = append(ok, k)
		} else if firstErr == nil || severity(e) > severity(firstErr) {
			firstErr, firstShard = e, k
		}
	}
	if firstErr == nil {
		return ok, false, nil
	}
	if strict || texservice.Refused(firstErr) || len(ok) == 0 {
		return nil, false, fmt.Errorf("shard: %s on shard %d/%d: %w",
			op, firstShard, len(s.shards), firstErr)
	}
	return ok, true, nil
}

// severity ranks a shard's error for reporting: a refusal, then a root
// cause, then a cancellation.
func severity(err error) int {
	switch {
	case texservice.Refused(err):
		return 2
	case errors.Is(err, context.Canceled):
		return 0
	}
	return 1
}

// Search implements texservice.Service: a batch of one.
func (s *Sharded) Search(ctx context.Context, e textidx.Expr, form texservice.Form) (*texservice.Result, error) {
	return texservice.Single(s.search(ctx, false, []textidx.Expr{e}, form))
}

// search is the federation's one request path: scatter the unchanged
// request to every shard (each leg makes the backend call the federation
// was asked for, see texservice.Invoke), merge the k-th answer of every
// shard into the k-th federated answer in global docid order, and charge
// the fan-out to the root meter once, with parallel cost semantics — one
// invocation per shard for the whole request, each shard's postings and
// documents summed across it. In best-effort mode failed shards are
// dropped from every answer and each answer is marked Partial.
func (s *Sharded) search(ctx context.Context, batch bool, exprs []textidx.Expr, form texservice.Form) ([]*texservice.Result, error) {
	op, span := "search", "shard.search"
	if batch {
		op, span = "batch search", "shard.batchsearch"
	}
	ctx, sp := obs.StartSpan(ctx, span)
	defer sp.End()
	if err := texservice.CheckTermLimit(exprs, s.maxTerms); err != nil {
		return nil, err
	}
	legs, errs := scatter(ctx, s, func(ctx context.Context, k int, svc texservice.Service) ([]*texservice.Result, error) {
		return texservice.Invoke(ctx, svc, batch, exprs, form)
	})
	ok, partial, err := s.gather(op, !s.bestEffort, errs)
	if err != nil {
		return nil, err
	}
	parts := make([]texservice.ScatterPart, len(ok))
	for i, k := range ok {
		for _, res := range legs[k] {
			parts[i].Postings += res.Postings
			parts[i].Docs += len(res.Hits)
		}
	}
	s.meter.ChargeScatter(ctx, parts, form)
	out := make([]*texservice.Result, len(exprs))
	answers := make([]*texservice.Result, len(ok))
	hits, postings := 0, 0
	for i := range exprs {
		for j, k := range ok {
			answers[j] = legs[k][i]
		}
		res := s.merge(ok, answers)
		res.Partial = partial
		out[i] = res
		hits += len(res.Hits)
		postings += res.Postings
	}
	if sp != nil {
		crit := 0.0
		for _, p := range parts {
			crit = max(crit, s.meter.Costs().SearchCost(p.Postings, p.Docs, form))
		}
		sp.SetAttr(obs.Int("shards", len(s.shards)), obs.Int("shards_ok", len(ok)),
			obs.Int("hits", hits), obs.Int("postings", postings),
			obs.F64("crit_cost", crit), obs.Str("partial", fmt.Sprint(partial)))
	}
	return out, nil
}

// merge folds the answers of the shards in ok (answers[j] is shard
// ok[j]'s) into one result: its hits k-way-merged into global docid order
// — the exact order the unsharded index would have produced — and
// rewritten from shard-local to global docids on the way into the one
// output slice. Local docids are dense and increasing with global docids,
// so each shard's hits stay sorted once rewritten. When every shard that
// answered with hits names the same fields, the merged result shares
// their field list and values; otherwise (long-form answers over uneven
// documents) it carries the sorted union, and a hit from a shard that
// lacks one of its fields gets "" there.
func (s *Sharded) merge(ok []int, answers []*texservice.Result) *texservice.Result {
	n := len(s.shards)
	res := &texservice.Result{}
	total := 0
	for _, a := range answers {
		res.Postings += a.Postings
		total += len(a.Hits)
	}
	if total == 0 {
		return res
	}
	res.Fields = mergeFields(answers)
	remap := make([][]int, len(answers)) // nil: the answer's columns are res.Fields
	for j, a := range answers {
		if len(a.Hits) > 0 && !slices.Equal(a.Fields, res.Fields) {
			remap[j] = make([]int, len(res.Fields))
			for c, f := range res.Fields {
				remap[j][c] = a.Column(f)
			}
		}
	}
	res.Hits = make([]texservice.Hit, 0, total)
	cursors := make([]int, len(answers))
	for len(res.Hits) < total {
		best := -1
		var bestID textidx.DocID
		for j, a := range answers {
			if c := cursors[j]; c < len(a.Hits) {
				if id := textidx.GlobalID(ok[j], a.Hits[c].ID, n); best < 0 || id < bestID {
					best, bestID = j, id
				}
			}
		}
		h := answers[best].Hits[cursors[best]]
		cursors[best]++
		h.ID = bestID
		if cols := remap[best]; cols != nil {
			vals := make([]string, len(cols))
			for c, col := range cols {
				vals[c] = h.Value(col)
			}
			h.Values = vals
		}
		res.Hits = append(res.Hits, h)
	}
	return res
}

// mergeFields returns the fields of the merged result: those of the
// answers with hits when they all agree, their sorted union otherwise.
func mergeFields(answers []*texservice.Result) []string {
	var fields []string
	same, first := true, true
	for _, a := range answers {
		if len(a.Hits) == 0 {
			continue
		}
		if first {
			fields, first = a.Fields, false
		} else if !slices.Equal(a.Fields, fields) {
			same = false
		}
	}
	if same {
		return fields
	}
	seen := map[string]bool{}
	var union []string
	for _, a := range answers {
		for _, f := range a.Fields {
			if len(a.Hits) > 0 && !seen[f] {
				seen[f] = true
				union = append(union, f)
			}
		}
	}
	slices.Sort(union)
	return union
}

// Retrieve implements texservice.Service: the point lookup is routed to
// the owning shard computed from the partition invariant. Retrieval is a
// single-backend operation, so strict and best-effort behave identically:
// if the owner is down (after its per-shard retries), the document is
// unreachable.
func (s *Sharded) Retrieve(ctx context.Context, id textidx.DocID) (textidx.Document, error) {
	ctx, sp := obs.StartSpan(ctx, "shard.retrieve")
	defer sp.End()
	n := len(s.shards)
	if id < 0 {
		return textidx.Document{}, fmt.Errorf("textidx: no document %d", id)
	}
	k := textidx.ShardOf(id, n)
	if sp != nil {
		sp.SetAttr(obs.Int("docid", int(id)), obs.Int("owner", k))
	}
	doc, err := s.shards[k].Retrieve(texservice.DetachQueryMeter(ctx), textidx.LocalID(id, n))
	if err != nil {
		return textidx.Document{}, err
	}
	s.meter.ChargeRetrieve(ctx)
	return doc, nil
}

// NumDocs implements texservice.Service: the partition is disjoint and
// exhaustive, so the collection size is the sum of the shard sizes.
func (s *Sharded) NumDocs() (int, error) {
	total := 0
	for k, svc := range s.shards {
		n, err := svc.NumDocs()
		if err != nil {
			return 0, fmt.Errorf("shard: numdocs on shard %d: %w", k, err)
		}
		total += n
	}
	return total, nil
}

// MaxTerms implements texservice.Service: the smallest shard limit, since
// every shard must accept the scattered expression.
func (s *Sharded) MaxTerms() int { return s.maxTerms }

// ShortFields implements texservice.Service.
func (s *Sharded) ShortFields() []string {
	return append([]string(nil), s.shortFields...)
}

// Meter implements texservice.Service: the root meter, charged with
// parallel cost semantics for fan-outs.
func (s *Sharded) Meter() *texservice.Meter { return s.meter }

var _ texservice.Service = (*Sharded)(nil)
