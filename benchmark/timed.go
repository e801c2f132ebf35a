package main

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
)

// Layer names of the benchmark-owned spans. The text-service layers are
// named after what sits directly inside the boundary, so a span's self
// time (duration minus the part its children cover) is the time spent in
// that package.
const (
	layerPrepare = "prepare" // one core.Engine.PrepareContext call
	layerRun     = "run"     // one core.Prepared.RunContext call
	layerCache   = "cache"   // above ProbeCache+Cached
	layerShard   = "shard"   // below the caches, around shard.Sharded
	layerReplica = "replica" // around each replica.Set
	layerWire    = "wire"    // around each texservice.Remote
	layerBackend = "backend" // around each Local/Live: textidx evaluation
)

// span is one recorded boundary crossing. Times are offsets from the
// tracer's epoch; parent is an index into the tracer's span list, -1 for
// a span that was started without a traced context (a call made under
// context.Background, or on the far side of a TCP connection).
type span struct {
	layer      string
	peer       int // pairs a wire span with the backend behind its server; -1 elsewhere
	search     bool
	parent     int
	start, end time.Duration
}

// tracer keeps every span of a traced pass in memory.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

type spanKey struct{}

// begin opens a span under the span ctx carries (if any) and returns the
// context for the calls made inside it plus the function that closes it.
// A nil tracer records nothing.
func (t *tracer) begin(ctx context.Context, layer string, peer int, search bool) (context.Context, func()) {
	if t == nil {
		return ctx, func() {}
	}
	parent := -1
	if p, ok := ctx.Value(spanKey{}).(int); ok {
		parent = p
	}
	start := time.Since(t.epoch)
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{layer: layer, peer: peer, search: search, parent: parent, start: start, end: -1})
	t.mu.Unlock()
	return context.WithValue(ctx, spanKey{}, id), func() {
		end := time.Since(t.epoch)
		t.mu.Lock()
		t.spans[id].end = end
		t.mu.Unlock()
	}
}

// mark is the position a later since starts from.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// since returns the spans recorded after mark, re-indexed from 0. A span
// still open (a cancelled hedge loser whose backend outlives the pass)
// is blanked, and a parent from before the mark is forgotten.
func (t *tracer) since(mark int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans[mark:]...)
	for i := range out {
		s := &out[i]
		if s.parent -= mark; s.parent < 0 {
			s.parent = -1
		}
		if s.end < 0 {
			*s = span{parent: -1, peer: -1}
		}
	}
	return out
}

// adopt gives every parentless span of layer child the innermost span of
// layer parent that was open when it started (and, with matchPeer, has
// the same peer). Context does not cross a TCP connection or a
// context.Background call, but in a single-client pass containment in
// time identifies the caller.
func adopt(spans []span, child, parent string, matchPeer bool) {
	var cands []int
	for i, s := range spans {
		if s.layer == parent {
			cands = append(cands, i)
		}
	}
	sort.Slice(cands, func(a, b int) bool { return spans[cands[a]].start < spans[cands[b]].start })
	for i := range spans {
		c := &spans[i]
		if c.layer != child || c.parent >= 0 {
			continue
		}
		// Latest-starting candidate that contains c.start.
		hi := sort.Search(len(cands), func(k int) bool { return spans[cands[k]].start > c.start })
		for k := hi - 1; k >= 0; k-- {
			p := spans[cands[k]]
			if p.end >= c.start && (!matchPeer || p.peer == c.peer) {
				c.parent = cands[k]
				break
			}
		}
	}
}

// interval is a half-open time range.
type interval struct{ lo, hi time.Duration }

// unionLen is the total length covered by the intervals, each clipped to
// [lo, hi].
func unionLen(ivs []interval, lo, hi time.Duration) time.Duration {
	clipped := ivs[:0:0]
	for _, iv := range ivs {
		if iv.lo < lo {
			iv.lo = lo
		}
		if iv.hi > hi {
			iv.hi = hi
		}
		if iv.hi > iv.lo {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(a, b int) bool { return clipped[a].lo < clipped[b].lo })
	var total, end time.Duration
	end = lo
	for _, iv := range clipped {
		if iv.lo > end {
			end = iv.lo
		}
		if iv.hi > end {
			total += iv.hi - end
			end = iv.hi
		}
	}
	return total
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover, and per span how much of its
// children's time ran in parallel (the sum of their durations inside the
// span minus the part of it they cover).
func selfTimes(spans []span) (self, overlap []time.Duration) {
	kids := make([][]interval, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], interval{s.start, s.end})
		}
	}
	self = make([]time.Duration, len(spans))
	overlap = make([]time.Duration, len(spans))
	for i, s := range spans {
		covered := unionLen(kids[i], s.start, s.end)
		self[i] = (s.end - s.start) - covered
		for _, k := range kids[i] {
			overlap[i] += unionLen([]interval{k}, s.start, s.end)
		}
		overlap[i] -= covered
	}
	return self, overlap
}

// layerTotals sums what a traced pass recorded for one layer.
type layerTotals struct {
	spans    int
	searches int // Search and BatchSearch calls
	total    time.Duration
	self     time.Duration
}

// totalsByRoot sums the spans per layer, keyed first by the layer of the
// root of the tree they hang from (prepare, run, or a writer's tree),
// and returns the parallel overlap inside the prepare and run trees.
func totalsByRoot(spans []span) (map[string]map[string]layerTotals, time.Duration) {
	self, overlap := selfTimes(spans)
	out := map[string]map[string]layerTotals{}
	var parallel time.Duration
	for i, s := range spans {
		if s.layer == "" {
			continue
		}
		root := i
		for spans[root].parent >= 0 {
			root = spans[root].parent
		}
		rootLayer := spans[root].layer
		if rootLayer == layerPrepare || rootLayer == layerRun {
			parallel += overlap[i]
		}
		m := out[rootLayer]
		if m == nil {
			m = map[string]layerTotals{}
			out[rootLayer] = m
		}
		lt := m[s.layer]
		lt.spans++
		if s.search {
			lt.searches++
		}
		lt.total += s.end - s.start
		lt.self += self[i]
		m[s.layer] = lt
	}
	return out, parallel
}

var errNoCapability = errors.New("benchmark: inner service lacks the capability")

// timed is the benchmark's boundary decorator: it records one span per
// data operation and forwards everything else untouched. It implements
// all six optional capabilities the way the program's own decorators do
// (always present, failing at call time when the inner service lacks
// one), plus Unwrap so gateway.New still finds the caches beneath it.
type timed struct {
	inner texservice.Service
	tr    *tracer
	layer string
	peer  int
}

func newTimed(tr *tracer, layer string, peer int, inner texservice.Service) texservice.Service {
	if tr == nil {
		return inner
	}
	return &timed{inner: inner, tr: tr, layer: layer, peer: peer}
}

func (t *timed) Search(ctx context.Context, e textidx.Expr, form texservice.Form) (*texservice.Result, error) {
	ctx, end := t.tr.begin(ctx, t.layer, t.peer, true)
	defer end()
	return t.inner.Search(ctx, e, form)
}

func (t *timed) BatchSearch(ctx context.Context, exprs []textidx.Expr, form texservice.Form) ([]*texservice.Result, error) {
	b, ok := t.inner.(texservice.BatchSearcher)
	if !ok {
		return nil, errNoCapability
	}
	ctx, end := t.tr.begin(ctx, t.layer, t.peer, true)
	defer end()
	return b.BatchSearch(ctx, exprs, form)
}

func (t *timed) Retrieve(ctx context.Context, id textidx.DocID) (textidx.Document, error) {
	ctx, end := t.tr.begin(ctx, t.layer, t.peer, false)
	defer end()
	return t.inner.Retrieve(ctx, id)
}

func (t *timed) Ingest(ctx context.Context, ops []texservice.IngestOp) (*texservice.IngestResult, error) {
	ctx, end := t.tr.begin(ctx, t.layer, t.peer, false)
	defer end()
	return texservice.IngestInto(ctx, t.inner, ops)
}

func (t *timed) TermDocFrequency(ctx context.Context, field, term string) (int, error) {
	p, ok := t.inner.(texservice.StatsProvider)
	if !ok {
		return 0, errNoCapability
	}
	return p.TermDocFrequency(ctx, field, term)
}

func (t *timed) IndexVersion(ctx context.Context) (uint64, error) {
	v, ok := t.inner.(texservice.Versioned)
	if !ok {
		return 0, texservice.ErrNoIngest
	}
	return v.IndexVersion(ctx)
}

func (t *timed) PinSnapshot(ctx context.Context) context.Context {
	return texservice.PinSnapshot(ctx, t.inner)
}

func (t *timed) SnapshotPinned(ctx context.Context) bool {
	return texservice.SnapshotPinned(ctx, t.inner)
}

func (t *timed) NumDocs() (int, error)      { return t.inner.NumDocs() }
func (t *timed) MaxTerms() int              { return t.inner.MaxTerms() }
func (t *timed) ShortFields() []string      { return t.inner.ShortFields() }
func (t *timed) Meter() *texservice.Meter   { return t.inner.Meter() }
func (t *timed) Unwrap() texservice.Service { return t.inner }

var (
	_ texservice.Service        = (*timed)(nil)
	_ texservice.StatsProvider  = (*timed)(nil)
	_ texservice.BatchSearcher  = (*timed)(nil)
	_ texservice.Ingestor       = (*timed)(nil)
	_ texservice.Versioned      = (*timed)(nil)
	_ texservice.SnapshotPinner = (*timed)(nil)
	_ texservice.PinProber      = (*timed)(nil)
)
