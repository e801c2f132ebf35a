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
// for previous queries"). It keys on the form plus the expression as
// written, for every form. A cache hit answers locally, charging nothing —
// the decorated meter only sees misses. Only Search and Ingest are
// intercepted; see exprCache for the mechanism.
type Cached struct{ exprCache }

// NewCached wraps a service with an LRU of the given capacity (entries).
func NewCached(inner Service, capacity int) *Cached {
	return &Cached{newExprCache(inner, capacity, "cache.search", searchKey)}
}

func searchKey(e textidx.Expr, form Form) (string, bool) {
	return form.String() + "\x00" + e.String(), true
}

// ProbeCache decorates a Service with a cross-query cache of short-form
// search results keyed on *normalized* expressions (textidx.Normalize):
// two probes that differ only in conjunct order or nesting share one
// entry, so the batched-probe pushdown's OR groups and per-tuple probes
// from different queries reuse each other's answers. Long-form searches
// pass through uncached and uncounted (they are result transmission, not
// probing). Batched invocations pass through whole: batched probes
// already deduplicate upstream, so per-expression lookups would only
// split invocations back apart. See exprCache for the mechanism.
type ProbeCache struct{ exprCache }

// NewProbeCache wraps a service with a probe-result LRU of the given
// capacity (entries).
func NewProbeCache(inner Service, capacity int) *ProbeCache {
	return &ProbeCache{newExprCache(inner, capacity, "", probeKey)}
}

func probeKey(e textidx.Expr, form Form) (string, bool) {
	if form != FormShort {
		return "", false
	}
	return textidx.Normalize(e).String(), true
}

// exprCache is the one expression cache behind Cached and ProbeCache,
// which differ only in their key function.
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
// Ingest on its way through), and entries from an older version are
// rejected on hit — a post-write search can never be answered from a
// pre-write entry. Invalidate advances a separate generation counter
// (entries must match both), so an out-of-band invalidation never burns
// a value from the store's monotonic version space. Queries whose pinned
// snapshot view (SnapshotPinner/PinProber) has fallen behind the current
// state bypass the cache entirely: their answers reflect the old pinned
// view, and must neither be served current-version entries nor have
// their answers filled for unpinned readers. A Partial result (a
// best-effort federation lost a shard) is returned but never stored, so
// once the shard recovers the next search sees every hit. On an immutable
// collection the version never moves and none of this costs anything.
type exprCache struct {
	Forward
	span  string                                  // Search's span name; "" records none
	keyOf func(textidx.Expr, Form) (string, bool) // false: pass through uncached

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

func newExprCache(inner Service, capacity int, span string, keyOf func(textidx.Expr, Form) (string, bool)) exprCache {
	return exprCache{
		Forward:  Forward{inner},
		span:     span,
		keyOf:    keyOf,
		lru:      list.New(),
		entries:  map[string]*list.Element{},
		inflight: map[string]*inflightCall{},
		cap:      max(capacity, 1),
	}
}

// note records the cache's verdict on the search span, if any.
func note(sp *obs.Span, verdict string) {
	if sp != nil {
		sp.SetAttr(obs.Str("cache", verdict))
	}
}

// Search implements Service, serving repeats from the cache and merging
// concurrent identical searches into one backend call.
func (c *exprCache) Search(ctx context.Context, e textidx.Expr, form Form) (*Result, error) {
	key, cacheable := c.keyOf(e, form)
	if !cacheable {
		return c.Service.Search(ctx, e, form)
	}
	var sp *obs.Span
	if c.span != "" {
		ctx, sp = obs.StartSpan(ctx, c.span)
		defer sp.End()
	}
	if SnapshotPinned(ctx, c.Service) {
		// This query's pinned view has fallen behind the current index
		// version: serving it a current-version entry would break its
		// snapshot, and filling the cache with its answer would hand
		// pre-write results to unpinned readers. Bypass the cache in both
		// directions. (A pin still at the current state reads through the
		// cache normally.)
		note(sp, "pinned-bypass")
		return c.Service.Search(ctx, e, form)
	}
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
			// backend call.
			c.lru.Remove(el)
			delete(c.entries, key)
		}
		if call, ok := c.inflight[key]; ok && call.version == c.version && call.gen == c.gen {
			// A leader is already searching this key at the current
			// version: wait for it.
			c.dedups++
			c.mu.Unlock()
			note(sp, "dedup-wait")
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
			note(sp, "stale-leader-bypass")
			return c.Service.Search(ctx, e, form)
		}
		call := &inflightCall{version: c.version, gen: c.gen, done: make(chan struct{})}
		c.inflight[key] = call
		c.mu.Unlock()

		note(sp, "miss")
		res, err := c.Service.Search(ctx, e, form)
		// Re-probe the pin before publishing: a write can land between the
		// top-of-search check and the leader registration, in which case
		// this answer reflects the old pinned view even though the cache
		// version already moved on. Checked outside the cache lock — it
		// reads backend state.
		pinnedBehind := err == nil && SnapshotPinned(ctx, c.Service)
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
		// unchanged, the pinned view (if any) is still current and the
		// result is complete.
		if !pinnedBehind && !res.Partial && call.version == c.version && call.gen == c.gen {
			if el, ok := c.entries[key]; ok {
				// Raced with another miss; keep the existing entry.
				c.lru.MoveToFront(el)
			} else {
				c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, version: c.version, gen: c.gen, res: res})
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
func (c *exprCache) SetIndexVersion(v uint64) {
	c.mu.Lock()
	if v != c.version {
		c.version = v
		c.invals++
	}
	c.mu.Unlock()
}

// Invalidate drops every entry and advances the cache's generation, so
// in-flight leaders will not fill either. It deliberately does NOT touch
// the version counter: that space belongs to the store's monotonic index
// version, and burning a value here would make the next real write's
// SetIndexVersion a no-op — entries filled between the Invalidate and
// that write would then be served as current.
func (c *exprCache) Invalidate() {
	c.mu.Lock()
	c.gen++
	c.invals++
	c.lru.Init()
	clear(c.entries)
	c.mu.Unlock()
}

// Ingest implements Ingestor when the inner service does: the batch is
// forwarded, and on success the cache adopts the post-write index
// version so stale entries are never served. A failed batch may still be
// partially applied below (a broadcast ingest can land on some shards
// before failing on another) and no new version will be adopted until a
// later write succeeds, so the error path conservatively invalidates
// rather than let entries that predate the partial write keep serving.
func (c *exprCache) Ingest(ctx context.Context, ops []IngestOp) (*IngestResult, error) {
	res, err := c.Forward.Ingest(ctx, ops)
	if err != nil {
		if !errors.Is(err, ErrNoIngest) {
			c.Invalidate()
		}
		return nil, err
	}
	c.SetIndexVersion(res.Version)
	return res, nil
}

// Stats reports cache hits and misses. A search answered by waiting on an
// in-flight identical search counts as a hit.
func (c *exprCache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Dedups reports how many searches were deduplicated onto a concurrent
// identical in-flight search instead of calling the backend.
func (c *exprCache) Dedups() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dedups
}

// Invalidations reports how many times the version or generation moved.
func (c *exprCache) Invalidations() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.invals
}

// Version returns the index version the cache currently serves.
func (c *exprCache) Version() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.version
}
