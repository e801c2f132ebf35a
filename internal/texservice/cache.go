package texservice

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"textjoin/internal/obs"
	"textjoin/internal/textidx"
)

// Cached decorates a Service with an LRU cache of search results, the
// cross-query generalization of §3.1's observation that repeated
// instantiations need not be resent ("caching the values of join columns
// for previous queries"). A cache hit answers locally, charging nothing —
// the decorated meter only sees misses. Retrievals and metadata pass
// through.
//
// Concurrent identical searches are deduplicated (singleflight): the
// first miss becomes the leader and performs the backend call; every
// concurrent duplicate waits for the leader's result instead of joining a
// thundering herd, so one logical search is charged one c_i rather than
// one per caller. A deduplicated waiter counts as a cache hit. If the
// leader fails, waiters retry independently (a transient leader error
// must not poison everyone).
//
// Every entry is keyed on the index version it was filled at: a write to
// the collection advances the cache's version (SetIndexVersion, called by
// the Ingest forwarding below), and entries from an older version are
// rejected on hit — a post-write search can never be answered from a
// pre-write entry. Invalidate advances a separate generation counter
// (entries must match both), so an out-of-band invalidation never burns
// a value from the store's monotonic version space. Queries whose pinned
// snapshot view (SnapshotPinner/PinProber) has fallen behind the current
// state bypass the cache entirely: their answers reflect the old pinned
// view, and must neither be served current-version entries nor have
// their answers filled for unpinned readers. On an immutable collection
// the version never moves and the cache behaves exactly as before.
type Cached struct {
	inner Service

	mu       sync.Mutex
	lru      *list.List // of *cacheEntry, front = most recent
	entries  map[string]*list.Element
	inflight map[string]*inflightCall
	cap      int
	version  uint64
	gen      uint64
	hits     int
	misses   int
	dedups   int
	invals   int
}

type cacheEntry struct {
	key     string
	version uint64
	gen     uint64
	res     *Result
}

// inflightCall is one in-progress backend search that duplicates wait on.
type inflightCall struct {
	version uint64        // cache version when the leader started
	gen     uint64        // cache generation when the leader started
	done    chan struct{} // closed when res/err are set
	res     *Result
	err     error
}

// NewCached wraps a service with an LRU of the given capacity (entries).
func NewCached(inner Service, capacity int) *Cached {
	if capacity < 1 {
		capacity = 1
	}
	return &Cached{
		inner:    inner,
		lru:      list.New(),
		entries:  map[string]*list.Element{},
		inflight: map[string]*inflightCall{},
		cap:      capacity,
	}
}

// Search implements Service, serving repeats from the cache and merging
// concurrent identical searches into one backend call.
func (c *Cached) Search(ctx context.Context, e textidx.Expr, form Form) (*Result, error) {
	ctx, sp := obs.StartSpan(ctx, "cache.search")
	defer sp.End()
	if SnapshotPinned(ctx, c.inner) {
		// This query's pinned view has fallen behind the current index
		// version: serving it a current-version entry would break its
		// snapshot, and filling the cache with its answer would hand
		// pre-write results to unpinned readers. Bypass the cache in both
		// directions. (A pin still at the current state reads through the
		// cache normally.)
		if sp != nil {
			sp.SetAttr(obs.Str("cache", "pinned-bypass"))
		}
		return c.inner.Search(ctx, e, form)
	}
	key := form.String() + "\x00" + e.String()
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			ent := el.Value.(*cacheEntry)
			if ent.version == c.version && ent.gen == c.gen {
				c.lru.MoveToFront(el)
				res := ent.res
				c.hits++
				c.mu.Unlock()
				if sp != nil {
					sp.SetAttr(obs.Str("cache", "hit"), obs.Int("hits", len(res.Hits)))
				}
				return res, nil
			}
			// Filled before the last write: evict and fall through to a
			// backend call — a post-write search never sees a pre-write
			// entry.
			c.lru.Remove(el)
			delete(c.entries, key)
		}
		if call, ok := c.inflight[key]; ok && call.version == c.version && call.gen == c.gen {
			// A leader is already searching this key at the current
			// version: wait for it.
			c.dedups++
			c.mu.Unlock()
			if sp != nil {
				sp.SetAttr(obs.Str("cache", "dedup-wait"))
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-call.done:
			}
			if call.err == nil {
				c.mu.Lock()
				c.hits++
				c.mu.Unlock()
				return call.res, nil
			}
			// The leader failed; loop and try the backend ourselves
			// rather than inheriting an error that may not be ours.
			continue
		} else if ok {
			// A leader from before the last write is still in flight; its
			// answer may predate the write, so bypass the dedup and ask
			// the backend directly (uncached).
			c.mu.Unlock()
			if sp != nil {
				sp.SetAttr(obs.Str("cache", "stale-leader-bypass"))
			}
			return c.inner.Search(ctx, e, form)
		}
		call := &inflightCall{version: c.version, gen: c.gen, done: make(chan struct{})}
		c.inflight[key] = call
		c.mu.Unlock()

		if sp != nil {
			sp.SetAttr(obs.Str("cache", "miss"))
		}
		res, err := c.inner.Search(ctx, e, form)
		// Re-probe the pin before publishing: a write can land between the
		// top-of-search check and the leader registration, in which case
		// this answer reflects the old pinned view even though the cache
		// version already moved on. Checked outside the cache lock — it
		// reads backend state.
		pinnedBehind := err == nil && SnapshotPinned(ctx, c.inner)
		c.mu.Lock()
		if c.inflight[key] == call {
			delete(c.inflight, key)
		}
		call.res, call.err = res, err
		close(call.done)
		if err != nil {
			c.mu.Unlock()
			return nil, err
		}
		c.misses++
		// A write (or invalidation) racing with the backend call makes
		// this result stale relative to the new version: return it (it was
		// correct when issued) but only cache it if both counters are
		// unchanged and the pinned view (if any) is still current. A
		// Partial result (a best-effort federation lost a shard) is
		// returned but never stored: once the shard recovers, the next
		// search must see every hit.
		if !pinnedBehind && !res.Partial && call.version == c.version && call.gen == c.gen {
			if el, ok := c.entries[key]; ok {
				// Raced with another miss; keep the existing entry.
				c.lru.MoveToFront(el)
			} else {
				el := c.lru.PushFront(&cacheEntry{key: key, version: c.version, gen: c.gen, res: res})
				c.entries[key] = el
				if c.lru.Len() > c.cap {
					oldest := c.lru.Back()
					c.lru.Remove(oldest)
					delete(c.entries, oldest.Value.(*cacheEntry).key)
				}
			}
		}
		c.mu.Unlock()
		return res, nil
	}
}

// SetIndexVersion keys the cache on an explicit index version: when it
// differs from the current one, every existing entry (and in-flight
// leader) is implicitly stale and will be rejected on its next lookup.
func (c *Cached) SetIndexVersion(v uint64) {
	c.mu.Lock()
	if v != c.version {
		c.version = v
		c.invals++
	}
	c.mu.Unlock()
}

// Invalidate advances the cache's generation, invalidating every entry.
// It deliberately does NOT touch the version counter: that space belongs
// to the store's monotonic index version, and burning a value here would
// make the next real write's SetIndexVersion a no-op — entries filled
// between the Invalidate and that write would then be served as current.
func (c *Cached) Invalidate() {
	c.mu.Lock()
	c.gen++
	c.invals++
	c.mu.Unlock()
}

// Invalidations reports how many times the version moved.
func (c *Cached) Invalidations() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.invals
}

// Version returns the index version the cache currently serves.
func (c *Cached) Version() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.version
}

// Ingest implements Ingestor when the inner service does: the batch is
// forwarded, and on success the cache adopts the post-write index
// version so stale entries are never served. A failed batch may still be
// partially applied below (a broadcast ingest can land on some shards
// before failing on another) and no new version will be adopted until a
// later write succeeds, so the error path conservatively invalidates
// rather than let entries that predate the partial write keep serving.
func (c *Cached) Ingest(ctx context.Context, ops []IngestOp) (*IngestResult, error) {
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
func (c *Cached) IndexVersion(ctx context.Context) (uint64, error) {
	v, ok := c.inner.(Versioned)
	if !ok {
		return 0, ErrNoIngest
	}
	return v.IndexVersion(ctx)
}

// PinSnapshot implements SnapshotPinner when the inner service does.
// While the pinned view matches the current state the query reads
// through the cache normally; once a write moves the collection past
// the pin, its searches bypass the cache in both directions (see
// Search), so pre-write answers never enter the version-keyed cache and
// the pinned query keeps its snapshot.
func (c *Cached) PinSnapshot(ctx context.Context) context.Context {
	if p, ok := c.inner.(SnapshotPinner); ok {
		return p.PinSnapshot(ctx)
	}
	return ctx
}

// SnapshotPinned implements PinProber when the inner service does.
func (c *Cached) SnapshotPinned(ctx context.Context) bool {
	return SnapshotPinned(ctx, c.inner)
}

// Retrieve implements Service (pass-through).
func (c *Cached) Retrieve(ctx context.Context, id textidx.DocID) (textidx.Document, error) {
	return c.inner.Retrieve(ctx, id)
}

// NumDocs implements Service.
func (c *Cached) NumDocs() (int, error) { return c.inner.NumDocs() }

// MaxTerms implements Service.
func (c *Cached) MaxTerms() int { return c.inner.MaxTerms() }

// ShortFields implements Service.
func (c *Cached) ShortFields() []string { return c.inner.ShortFields() }

// Meter implements Service: the inner meter, which cache hits never touch.
func (c *Cached) Meter() *Meter { return c.inner.Meter() }

// Stats reports cache hits and misses. A search answered by waiting on an
// in-flight identical search counts as a hit.
func (c *Cached) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Dedups reports how many searches were deduplicated onto a concurrent
// identical in-flight search instead of calling the backend.
func (c *Cached) Dedups() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dedups
}

// Unwrap exposes the decorated service, so callers can walk a decorator
// chain (e.g. a probe cache stacked on a search cache).
func (c *Cached) Unwrap() Service { return c.inner }

// BatchSearch implements BatchSearcher when the inner service does.
// Batched invocations bypass the cache: their results are aligned
// per-expression answers, cached (if at all) by a ProbeCache above.
func (c *Cached) BatchSearch(ctx context.Context, exprs []textidx.Expr, form Form) ([]*Result, error) {
	batcher, ok := c.inner.(BatchSearcher)
	if !ok {
		return nil, errNoBatchCapability
	}
	return batcher.BatchSearch(ctx, exprs, form)
}

// TermDocFrequency implements StatsProvider when the inner service does.
func (c *Cached) TermDocFrequency(ctx context.Context, field, term string) (int, error) {
	provider, ok := c.inner.(StatsProvider)
	if !ok {
		return 0, errNoStatsCapability
	}
	return provider.TermDocFrequency(ctx, field, term)
}

var _ Service = (*Cached)(nil)
