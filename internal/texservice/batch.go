package texservice

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"textjoin/internal/obs"
	"textjoin/internal/textidx"
)

var (
	errNoBatchCapability = errors.New("texservice: inner service does not support batched invocation")
	errNoStatsCapability = errors.New("texservice: inner service does not export statistics")
)

// This file provides the batched-probe entry point and the cross-query
// probe-result cache that support batched probe pushdown: many probe
// instantiations travel in few invocations (under the term limit M), and
// probe answers are shared across queries keyed on normalized expressions.

// SearchBatch evaluates the expressions in order against the service and
// returns aligned results plus the number of invocations issued. It is
// the safe entry point for issuing many searches at once: the batch is
// split into chunks whose total term count respects svc.MaxTerms(), so a
// *TermLimitError is never surfaced for a splittable batch — only an
// expression that alone exceeds the limit fails, with exactly the error a
// plain Search of it would produce.
//
// When the service supports batched invocation (BatchSearcher — the local
// backend, and shard.Sharded federating each chunk to every shard with
// per-leg CritCost accounting), each chunk is one invocation; otherwise
// every expression is searched individually and the invocation count
// equals the expression count.
func SearchBatch(ctx context.Context, svc Service, exprs []textidx.Expr, form Form) ([]*Result, int, error) {
	if len(exprs) == 0 {
		return nil, 0, nil
	}
	ctx, sp := obs.StartSpan(ctx, "texservice.batch")
	defer sp.End()
	batcher, batched := svc.(BatchSearcher)
	limit := svc.MaxTerms()
	out := make([]*Result, len(exprs))
	invocations := 0

	// flush issues exprs[start:end] as one invocation (or individual
	// searches without the capability).
	flush := func(start, end int) error {
		if start == end {
			return nil
		}
		if batched {
			results, err := batcher.BatchSearch(ctx, exprs[start:end], form)
			if err != nil {
				return err
			}
			copy(out[start:], results)
			invocations++
			return nil
		}
		for i := start; i < end; i++ {
			res, err := svc.Search(ctx, exprs[i], form)
			if err != nil {
				return err
			}
			out[i] = res
			invocations++
		}
		return nil
	}

	start := 0
	terms := 0
	for i, e := range exprs {
		t := e.TermCount()
		if t > limit {
			// This expression cannot fit any batch; flush what precedes it
			// and send it alone so it fails (or succeeds) exactly as an
			// unbatched Search would.
			if err := flush(start, i); err != nil {
				return nil, invocations, err
			}
			res, err := svc.Search(ctx, e, form)
			if err != nil {
				return nil, invocations, err
			}
			out[i] = res
			invocations++
			start, terms = i+1, 0
			continue
		}
		if terms+t > limit {
			if err := flush(start, i); err != nil {
				return nil, invocations, err
			}
			start, terms = i, 0
		}
		terms += t
	}
	if err := flush(start, len(exprs)); err != nil {
		return nil, invocations, err
	}
	if sp != nil {
		sp.SetAttr(obs.Int("queries", len(exprs)), obs.Int("invocations", invocations))
	}
	return out, invocations, nil
}

// ProbeCache decorates a Service with a cross-query cache of short-form
// search results keyed on *normalized* expressions (textidx.Normalize):
// two probes that differ only in conjunct order or nesting share one
// entry, so the batched-probe pushdown's OR groups and per-tuple probes
// from different queries reuse each other's answers. Long-form searches
// pass through uncached (they are result transmission, not probing).
//
// Entries are keyed on the index version they were filled at: document
// writes advance the version (the Ingest forwarding below calls
// SetIndexVersion with the post-write version), and an entry from an
// older version is rejected on hit, so a post-write probe is never
// answered from a pre-write entry. Invalidate advances a separate
// generation counter (entries must match both), keeping out-of-band
// invalidations out of the store's monotonic version space. Probes whose
// pinned snapshot view has fallen behind the current state bypass the
// cache entirely — their answers reflect the old view.
type ProbeCache struct {
	inner Service

	mu      sync.Mutex
	lru     *list.List // of *probeEntry, front = most recent
	entries map[string]*list.Element
	cap     int
	version uint64
	gen     uint64
	hits    int
	misses  int
	invals  int
}

type probeEntry struct {
	key     string
	version uint64
	gen     uint64
	res     *Result
}

// NewProbeCache wraps a service with a probe-result LRU of the given
// capacity (entries).
func NewProbeCache(inner Service, capacity int) *ProbeCache {
	if capacity < 1 {
		capacity = 1
	}
	return &ProbeCache{
		inner:   inner,
		lru:     list.New(),
		entries: map[string]*list.Element{},
		cap:     capacity,
	}
}

// Search implements Service, serving repeated short-form probes from the
// normalized-key cache.
func (c *ProbeCache) Search(ctx context.Context, e textidx.Expr, form Form) (*Result, error) {
	if form != FormShort {
		return c.inner.Search(ctx, e, form)
	}
	if SnapshotPinned(ctx, c.inner) {
		// This probe's pinned view has fallen behind the current index
		// version: bypass the cache in both directions (see Cached.Search
		// for the full rationale).
		return c.inner.Search(ctx, e, form)
	}
	key := textidx.Normalize(e).String()
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		ent := el.Value.(*probeEntry)
		if ent.version == c.version && ent.gen == c.gen {
			c.lru.MoveToFront(el)
			res := ent.res
			c.hits++
			c.mu.Unlock()
			return res, nil
		}
		// Filled before the last write: evict and refill.
		c.lru.Remove(el)
		delete(c.entries, key)
	}
	version, gen := c.version, c.gen
	c.mu.Unlock()

	res, err := c.inner.Search(ctx, e, form)
	if err != nil {
		return nil, err
	}
	// Re-probe the pin before publishing: a write can land after the
	// top-of-search check, leaving this answer behind the current state
	// (see Cached.Search).
	pinnedBehind := SnapshotPinned(ctx, c.inner)
	c.mu.Lock()
	c.misses++
	// A write or invalidation racing with the backend call makes the
	// result stale relative to the new collection version: return it (it
	// was correct when issued) but do not cache it. Nor is a Partial
	// result cached (see Cached.Search).
	if !pinnedBehind && !res.Partial && c.version == version && c.gen == gen {
		if el, ok := c.entries[key]; ok {
			c.lru.MoveToFront(el)
		} else {
			el := c.lru.PushFront(&probeEntry{key: key, version: c.version, gen: c.gen, res: res})
			c.entries[key] = el
			if c.lru.Len() > c.cap {
				oldest := c.lru.Back()
				c.lru.Remove(oldest)
				delete(c.entries, oldest.Value.(*probeEntry).key)
			}
		}
	}
	c.mu.Unlock()
	return res, nil
}

// BatchSearch implements BatchSearcher when the inner service does. The
// batch travels whole — batched probes already deduplicate upstream, so
// per-expression cache lookups would only split invocations back apart.
func (c *ProbeCache) BatchSearch(ctx context.Context, exprs []textidx.Expr, form Form) ([]*Result, error) {
	batcher, ok := c.inner.(BatchSearcher)
	if !ok {
		return nil, errNoBatchCapability
	}
	return batcher.BatchSearch(ctx, exprs, form)
}

// TermDocFrequency implements StatsProvider when the inner service does.
func (c *ProbeCache) TermDocFrequency(ctx context.Context, field, term string) (int, error) {
	provider, ok := c.inner.(StatsProvider)
	if !ok {
		return 0, errNoStatsCapability
	}
	return provider.TermDocFrequency(ctx, field, term)
}

// Invalidate drops every cached probe result and advances the cache's
// generation. It deliberately does NOT touch the version counter: that
// space belongs to the store's monotonic index version, and burning a
// value here would make the next real write's SetIndexVersion a no-op —
// entries filled between the Invalidate and that write would then be
// served as current.
func (c *ProbeCache) Invalidate() {
	c.mu.Lock()
	c.gen++
	c.invals++
	c.lru.Init()
	c.entries = map[string]*list.Element{}
	c.mu.Unlock()
}

// SetIndexVersion keys the cache on an explicit index version; entries
// filled at an older version are rejected on their next lookup.
func (c *ProbeCache) SetIndexVersion(v uint64) {
	c.mu.Lock()
	if v != c.version {
		c.version = v
		c.invals++
	}
	c.mu.Unlock()
}

// Ingest implements Ingestor when the inner service does, adopting the
// post-write index version on success. A failed batch may still be
// partially applied below (see Cached.Ingest), so the error path
// conservatively invalidates.
func (c *ProbeCache) Ingest(ctx context.Context, ops []IngestOp) (*IngestResult, error) {
	res, err := IngestInto(ctx, c.inner, ops)
	if err != nil {
		if !errors.Is(err, ErrNoIngest) {
			c.Invalidate()
		}
		return nil, err
	}
	c.SetIndexVersion(res.Version)
	return res, nil
}

// IndexVersion implements Versioned when the inner service does.
func (c *ProbeCache) IndexVersion(ctx context.Context) (uint64, error) {
	v, ok := c.inner.(Versioned)
	if !ok {
		return 0, ErrNoIngest
	}
	return v.IndexVersion(ctx)
}

// PinSnapshot implements SnapshotPinner when the inner service does.
// Probes whose pin has fallen behind bypass the cache (see Search).
func (c *ProbeCache) PinSnapshot(ctx context.Context) context.Context {
	if p, ok := c.inner.(SnapshotPinner); ok {
		return p.PinSnapshot(ctx)
	}
	return ctx
}

// SnapshotPinned implements PinProber when the inner service does.
func (c *ProbeCache) SnapshotPinned(ctx context.Context) bool {
	return SnapshotPinned(ctx, c.inner)
}

// Retrieve implements Service (pass-through).
func (c *ProbeCache) Retrieve(ctx context.Context, id textidx.DocID) (textidx.Document, error) {
	return c.inner.Retrieve(ctx, id)
}

// NumDocs implements Service.
func (c *ProbeCache) NumDocs() (int, error) { return c.inner.NumDocs() }

// MaxTerms implements Service.
func (c *ProbeCache) MaxTerms() int { return c.inner.MaxTerms() }

// ShortFields implements Service.
func (c *ProbeCache) ShortFields() []string { return c.inner.ShortFields() }

// Meter implements Service: the inner meter, which cache hits never touch.
func (c *ProbeCache) Meter() *Meter { return c.inner.Meter() }

// Unwrap returns the decorated service, so serving layers can discover
// decorators below this one (e.g. the general search cache).
func (c *ProbeCache) Unwrap() Service { return c.inner }

// Stats reports probe-cache hits and misses.
func (c *ProbeCache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Invalidations reports how many times the cache was invalidated.
func (c *ProbeCache) Invalidations() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.invals
}

// Version returns the collection version the cache believes it serves.
func (c *ProbeCache) Version() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.version
}

var _ Service = (*ProbeCache)(nil)
