// Package replica is the routing tier that fronts R replicas of one
// document partition behind the texservice.Service interface — the
// serving-posture layer that makes a single backend's bad minute
// invisible. It slots between the sharded federation (internal/shard)
// and the per-backend clients: a shard.Sharded built over replica.Sets
// scatters each search across partitions exactly as before, while each
// partition's Set decides *which copy* answers.
//
// Three mechanisms cooperate:
//
//   - Load-aware selection. Every replica is tracked with an in-flight
//     count and an EWMA of its recent successful latencies. Selection is
//     power-of-two-choices: two random distinct candidates, keep the one
//     with fewer requests in flight (EWMA breaks ties). P2C avoids both
//     the herding of "always pick the best" and the obliviousness of
//     round-robin, at O(1) per call.
//
//   - Hedged requests. If the primary attempt has not answered within an
//     adaptive budget — the p95 of the Set's recent latencies, clamped to
//     [DefaultHedgeMin, DefaultHedgeMax] — a second attempt is launched
//     on a different replica. First answer wins; the loser is cancelled
//     through the standard context plumbing. Only the winner's work is
//     charged to the critical path: the loser's invocation is metered as
//     a parallel Usage.Hedges charge (cost, no elapsed time). A primary
//     that loses to its own hedge accumulates "slowness evidence": enough
//     consecutive hedge losses eject the replica just like errors do,
//     which is how a browned-out (slow-but-alive) backend leaves the
//     rotation. Cancelled losers never pollute the latency statistics,
//     so one slow replica cannot inflate the hedge budget that is
//     defending against it.
//
//   - Failover with ejection. A failed attempt is immediately retried on
//     a different replica (no backoff — the other copy is presumed
//     healthy), and a replica with enough consecutive failures is ejected
//     from selection. Ejection is not permanent: after ProbeAfter one
//     live request at a time is allowed through as a probe, and a
//     successful probe re-admits the replica. This is a half-open circuit
//     breaker per replica — a down backend costs one probe per window,
//     not a retry storm.
//
// The write path broadcasts each ingest batch to every replica with
// per-replica ack tracking. Replicas that miss a batch (down, ejected)
// are marked lagging; the next write that reaches one replays what it
// missed from a bounded replay buffer before applying its own batch.
// Reads never repair a replica. Until a write does, the read-your-writes
// gate (WithFreshReads) routes pinned queries away from it.
package replica

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"textjoin/internal/obs"
	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
)

// Defaults for the routing knobs.
const (
	// DefaultEjectAfter is the consecutive-failure count that ejects a
	// replica from selection.
	DefaultEjectAfter = 3
	// DefaultHedgeLossEject is the consecutive-hedge-loss count that
	// ejects a slow-but-alive replica.
	DefaultHedgeLossEject = 3
	// DefaultProbeAfter is how long an ejected replica sits out before
	// probe re-admission attempts begin.
	DefaultProbeAfter = 500 * time.Millisecond
	// defaultReplayDepth bounds the ingest replay buffer that repairs
	// lagging replicas. A replica that misses more batches than this
	// stays lagging until a snapshot transfer (out of scope) repairs it.
	defaultReplayDepth = 64
	// DefaultHedgeMin / DefaultHedgeMax clamp the adaptive hedge budget.
	DefaultHedgeMin = 500 * time.Microsecond
	DefaultHedgeMax = 250 * time.Millisecond
	// hedgeRingSize is how many recent latencies feed the p95 budget.
	hedgeRingSize = 128
	// hedgeWarmup is how many samples the budget needs before trusting
	// its p95; colder Sets hedge only after DefaultHedgeMax.
	hedgeWarmup = 16
)

// Option configures a Set.
type Option func(*options)

// options holds a Set's knobs. ejectAfter, hedgeLossEject, probeAfter
// and replayDepth always hold their defaults outside tests, and
// writeQuorum is always the majority; tests tighten them through the
// options in export_test.go.
type options struct {
	hedgeAfter     time.Duration
	hedgeOff       bool
	ejectAfter     int
	hedgeLossEject int
	probeAfter     time.Duration
	replayDepth    int
	writeQuorum    int // 0 or out of range: a majority, ceil((R+1)/2)
	seed           int64
}

func defaultOptions() options {
	return options{
		ejectAfter:     DefaultEjectAfter,
		hedgeLossEject: DefaultHedgeLossEject,
		probeAfter:     DefaultProbeAfter,
		replayDepth:    defaultReplayDepth,
		seed:           1,
	}
}

// WithHedgeAfter fixes the hedge budget instead of adapting it to the
// observed p95. Useful for tests and for callers with an SLO-derived
// budget.
func WithHedgeAfter(d time.Duration) Option {
	return func(o *options) { o.hedgeAfter = d }
}

// WithoutHedging disables hedged requests (selection, failover and
// ejection still apply) — the ablation baseline.
func WithoutHedging() Option {
	return func(o *options) { o.hedgeOff = true }
}

// WithSeed makes replica selection deterministic for tests.
func WithSeed(seed int64) Option {
	return func(o *options) {
		if seed != 0 {
			o.seed = seed
		}
	}
}

// replicaState is the routing tier's view of one backend copy.
type replicaState struct {
	idx int
	svc texservice.Service

	inflight    atomic.Int64
	ewmaNs      atomic.Int64 // smoothed successful latency; 0 = no samples
	consecFails atomic.Int32
	hedgeLosses atomic.Int32 // consecutive races lost to a hedge

	ejectedUntil atomic.Int64 // unix nanos; 0 = in rotation
	probing      atomic.Bool  // one probe in flight at a time

	version    atomic.Uint64 // index version of the last acked write
	lagging    atomic.Bool   // missed at least one acked write
	ackedBatch atomic.Int64  // last replay-buffer batch index acked
	failures   atomic.Uint64 // cumulative failed calls

	applyMu sync.Mutex // serializes ingest application into this replica
}

// Set fronts the replicas of one partition behind texservice.Service.
// It is safe for concurrent use.
type Set struct {
	replicas    []*replicaState
	meter       *texservice.Meter
	opts        options
	maxTerms    int
	shortFields []string

	mu      sync.Mutex // guards rng, the latency ring and its sorted copy
	rng     *rand.Rand
	ring    []time.Duration
	ringN   uint64          // total samples ever recorded
	sorted  []time.Duration // the ring, sorted when ringN was sortedN
	sortedN uint64

	version atomic.Uint64 // highest acked index version (the RYW fence)

	ingestMu  sync.Mutex   // serializes writes: broadcast order = replay order
	replayMu  sync.RWMutex // guards replay: straggler applies outlive Ingest
	replay    []replayEntry
	nextBatch int64
	applying  atomic.Int64 // broadcast acks not yet processed (incl. background drain)

	hedges       atomic.Uint64
	hedgeWins    atomic.Uint64
	hedgeCancels atomic.Uint64
	failovers    atomic.Uint64
	ejections    atomic.Uint64
	readmissions atomic.Uint64
}

// New composes the replicas of one partition into a routing Set. Every
// replica must serve the same collection: short-form fields must agree,
// and the Set's term limit is the smallest replica limit. The Set charges
// its routed operations to a fresh root meter with default costs, as
// shard.New does.
func New(replicas []texservice.Service, opts ...Option) (*Set, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("replica: set needs at least one replica")
	}
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	if o.writeQuorum < 1 || o.writeQuorum > len(replicas) {
		o.writeQuorum = len(replicas)/2 + 1
	}
	short, maxTerms, err := texservice.CheckMembers("replica", replicas)
	if err != nil {
		return nil, err
	}
	states := make([]*replicaState, len(replicas))
	for i, svc := range replicas {
		states[i] = &replicaState{idx: i, svc: svc}
		states[i].ackedBatch.Store(-1)
	}
	return &Set{
		replicas:    states,
		meter:       texservice.NewMeter(texservice.DefaultCosts()),
		opts:        o,
		maxTerms:    maxTerms,
		shortFields: short,
		rng:         rand.New(rand.NewSource(o.seed)),
	}, nil
}

// pick selects the next replica to try. tried marks replicas already
// attempted by this operation (nil = none). minVer, when nonzero, is the
// read-your-writes fence: replicas whose last acked version is older are
// skipped. Returns nil when no replica is usable. The second return
// reports whether this pick acquired the replica's probe slot: only the
// attempt that owns the slot may release or consume it — the
// least-failed fallback below can hand out an ejected replica while
// another operation's probe holds probing=true, and that probe must not
// be released by a bystander.
//
// Selection order: replicas due for a probe take precedence (one probe in
// flight at a time — that is how an ejected replica earns its way back),
// then power-of-two-choices over the healthy ones, and if everything is
// ejected the least-failed replica is tried anyway — an all-ejected Set
// must still attempt service rather than fail fast forever.
func (s *Set) pick(tried []bool, minVer uint64) (*replicaState, bool) {
	now := time.Now().UnixNano()
	var healthy, fallback []*replicaState
	for _, r := range s.replicas {
		if tried != nil && tried[r.idx] {
			continue
		}
		if minVer > 0 && r.version.Load() < minVer {
			continue
		}
		ej := r.ejectedUntil.Load()
		switch {
		case ej == 0:
			healthy = append(healthy, r)
		case now >= ej:
			if r.probing.CompareAndSwap(false, true) {
				return r, true
			}
			fallback = append(fallback, r)
		default:
			fallback = append(fallback, r)
		}
	}
	if len(healthy) == 0 {
		if len(fallback) == 0 {
			return nil, false
		}
		best := fallback[0]
		for _, r := range fallback[1:] {
			if r.consecFails.Load() < best.consecFails.Load() {
				best = r
			}
		}
		return best, false
	}
	if len(healthy) == 1 {
		return healthy[0], false
	}
	s.mu.Lock()
	i := s.rng.Intn(len(healthy))
	j := s.rng.Intn(len(healthy) - 1)
	s.mu.Unlock()
	if j >= i {
		j++
	}
	a, b := healthy[i], healthy[j]
	ia, ib := a.inflight.Load(), b.inflight.Load()
	if ib < ia {
		return b, false
	}
	if ia < ib {
		return a, false
	}
	if b.ewmaNs.Load() < a.ewmaNs.Load() {
		return b, false
	}
	return a, false
}

// hedgeBudget returns how long the primary attempt may run before a
// hedge is launched: a fixed override, or the p95 of recent latencies
// clamped to [DefaultHedgeMin, DefaultHedgeMax]. A cold Set (fewer than
// hedgeWarmup samples) hedges only after DefaultHedgeMax — eager hedging
// without data would double traffic for nothing.
func (s *Set) hedgeBudget() time.Duration {
	if s.opts.hedgeAfter > 0 {
		return s.opts.hedgeAfter
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ringN < hedgeWarmup {
		return DefaultHedgeMax
	}
	if s.sortedN != s.ringN {
		s.sorted = append(s.sorted[:0], s.ring...)
		slices.Sort(s.sorted)
		s.sortedN = s.ringN
	}
	return min(max(s.sorted[len(s.sorted)*95/100], DefaultHedgeMin), DefaultHedgeMax)
}

// recordLatency feeds one successful call into the hedge-budget ring.
func (s *Set) recordLatency(d time.Duration) {
	s.mu.Lock()
	if len(s.ring) < hedgeRingSize {
		s.ring = append(s.ring, d)
	} else {
		s.ring[s.ringN%hedgeRingSize] = d
	}
	s.ringN++
	s.mu.Unlock()
}

// observeSuccess updates a replica's tracker after a winning call:
// refresh the EWMA, clear failure and slowness evidence, and re-admit it
// if it was ejected at all — a success is a success. wasProbe marks an
// attempt that owns the replica's probe slot (the CAS in pick); only the
// owner releases it, so a fallback attempt cannot free a probe slot held
// by another operation.
func (s *Set) observeSuccess(r *replicaState, elapsed time.Duration, wasProbe bool) {
	const alpha = 0.2
	for {
		old := r.ewmaNs.Load()
		next := int64(float64(elapsed))
		if old > 0 {
			next = int64((1-alpha)*float64(old) + alpha*float64(elapsed))
		}
		if r.ewmaNs.CompareAndSwap(old, next) {
			break
		}
	}
	r.consecFails.Store(0)
	r.hedgeLosses.Store(0)
	if r.ejectedUntil.Swap(0) != 0 {
		s.readmissions.Add(1)
	}
	if wasProbe {
		r.probing.Store(false)
	}
	s.recordLatency(elapsed)
}

// observeFailure updates a replica's tracker after a failed call and
// ejects it when the consecutive-failure threshold is crossed. A failed
// probe (an attempt that owns the probe slot) re-ejects immediately: the
// replica has not earned its way back.
func (s *Set) observeFailure(r *replicaState, wasProbe bool) {
	r.failures.Add(1)
	fails := r.consecFails.Add(1)
	if wasProbe {
		r.probing.Store(false)
		s.eject(r)
		return
	}
	if int(fails) >= s.opts.ejectAfter && r.ejectedUntil.Load() == 0 {
		s.eject(r)
	}
}

// observeHedgeLoss records that a primary lost the race to its own
// hedge — evidence of slowness, not failure. Enough consecutive losses
// eject the replica exactly like errors would: a browned-out backend
// leaves the rotation even though every call it serves "succeeds".
func (s *Set) observeHedgeLoss(r *replicaState) {
	losses := r.hedgeLosses.Add(1)
	if int(losses) >= s.opts.hedgeLossEject && r.ejectedUntil.Load() == 0 {
		s.eject(r)
	}
}

func (s *Set) eject(r *replicaState) {
	r.ejectedUntil.Store(time.Now().Add(s.opts.probeAfter).UnixNano())
	s.ejections.Add(1)
}

// doStats summarizes one routed operation for cost accounting and spans.
type doStats struct {
	winner   *replicaState
	hedges   int // hedged attempts launched
	failures int // attempts that returned a real error
	hedgeWin bool
}

// errExhausted distinguishes "every replica tried and failed" for tests.
var errExhausted = errors.New("replica: all replicas failed")

// do routes one operation of s: pick a primary by P2C, hedge to a second
// replica if the budget elapses, fail over on error, cancel the losers,
// and report who won. A replica's refusal (texservice.Refused) is its
// answer: it is returned at once, counts no failure and fails over to
// nobody. f runs against an individual replica backend with
// the per-query meter detached — the Set's root meter is charged once by
// the caller with the winner's result, exactly like the shard layer's
// scatter accounting.
func do[T any](ctx context.Context, s *Set, op string, fresh bool, f func(context.Context, texservice.Service) (T, error)) (T, *doStats, error) {
	st := &doStats{}
	var zero T
	if err := ctx.Err(); err != nil {
		return zero, st, err
	}
	base := texservice.DetachQueryMeter(ctx)
	var minVer uint64
	if fresh {
		// A pinned query (PinSnapshot marks it fresh) fixes its version on
		// every replica before its first read is routed to one of them.
		s.SnapshotPinned(ctx)
		minVer = s.version.Load()
	}

	type attempt struct {
		r      *replicaState
		hedge  bool
		probe  bool // this attempt acquired r's probe slot in pick
		cancel context.CancelFunc
		start  time.Time
		sp     *obs.Span // per-attempt span (nil when tracing is off)
		tagged bool      // cancel_cause already recorded (main goroutine only)
	}
	type outcome struct {
		at  *attempt
		v   T
		err error
	}
	n := len(s.replicas)
	results := make(chan outcome, n) // buffered: cancelled losers never block
	tried := make([]bool, n)
	live := make(map[*attempt]bool, 2)
	var all []*attempt
	defer func() {
		for _, at := range all {
			at.cancel()
		}
		// Attempts whose outcome was never consumed (cancelled losers,
		// early caller cancellation) must release a probe slot they
		// acquired, or an ejected replica's probe could wedge shut
		// forever. Only the owner releases: another operation's probe may
		// hold the flag on a replica we reached via the ejected fallback.
		for at := range live {
			if !at.tagged && at.sp != nil {
				at.sp.SetAttr(obs.Str("cancel_cause", "caller_cancelled"))
			}
			if at.probe {
				at.r.probing.Store(false)
			}
		}
	}()

	launch := func(r *replicaState, hedge, probe bool) {
		actx, cancel := context.WithCancel(base)
		// One span per attempt, a child of the operation span: the trace
		// then shows the full race — primary, hedge, failovers — with each
		// loser tagged by why it was cancelled.
		actx, asp := obs.StartSpan(actx, "replica.attempt")
		if asp != nil {
			asp.SetAttr(obs.Int("replica", r.idx), obs.Str("hedge", fmt.Sprint(hedge)))
		}
		at := &attempt{r: r, hedge: hedge, probe: probe, cancel: cancel, start: time.Now(), sp: asp}
		tried[r.idx] = true
		all = append(all, at)
		live[at] = true
		r.inflight.Add(1)
		go func() {
			v, err := f(actx, r.svc)
			r.inflight.Add(-1)
			if asp != nil {
				if err != nil {
					asp.SetAttr(obs.Str("err", err.Error()))
				}
				asp.End()
			}
			results <- outcome{at: at, v: v, err: err}
		}()
	}

	primary, probe := s.pick(tried, minVer)
	if primary == nil {
		return zero, st, s.noReplicaError(op, minVer)
	}
	launch(primary, false, probe)

	var hedgeC <-chan time.Time
	if !s.opts.hedgeOff && n > 1 {
		t := time.NewTimer(s.hedgeBudget())
		defer t.Stop()
		hedgeC = t.C
	}

	attempts := 1
	var firstErr error
	for {
		select {
		case <-ctx.Done():
			return zero, st, ctx.Err()
		case <-hedgeC:
			hedgeC = nil
			if r, probe := s.pick(tried, minVer); r != nil {
				st.hedges++
				s.hedges.Add(1)
				launch(r, true, probe)
			}
		case out := <-results:
			at := out.at
			delete(live, at)
			if out.err == nil {
				s.observeSuccess(at.r, time.Since(at.start), at.probe)
				st.winner = at.r
				st.hedgeWin = at.hedge
				if at.hedge {
					s.hedgeWins.Add(1)
				}
				if at.sp != nil {
					at.sp.SetAttr(obs.Str("outcome", "won"))
				}
				for l := range live {
					l.cancel()
					// A cancel counts as a hedge cancel only when the race
					// involved a hedge — a failover attempt losing to a
					// primary is not hedging at work.
					if l.hedge || at.hedge {
						s.hedgeCancels.Add(1)
					}
					if at.hedge && !l.hedge {
						// The primary had a full budget's head start and
						// still lost: slowness evidence.
						s.observeHedgeLoss(l.r)
					}
					if l.sp != nil {
						// Tag the cancelled loser with why it lost; the span
						// already Ended (or will, with a canceled err) but
						// attributes attach regardless.
						cause := "sibling_won"
						switch {
						case at.hedge && !l.hedge:
							cause = "hedge_won"
						case !at.hedge && l.hedge:
							cause = "primary_won"
						}
						l.sp.SetAttr(obs.Str("cancel_cause", cause))
					}
					l.tagged = true
				}
				return out.v, st, nil
			}
			if texservice.Refused(out.err) {
				if at.probe {
					at.r.probing.Store(false)
				}
				return zero, st, out.err
			}
			if ctx.Err() != nil {
				if at.probe {
					at.r.probing.Store(false)
				}
				return zero, st, ctx.Err()
			}
			// A loser we cancelled ourselves reports context.Canceled on a
			// dead attempt context; that is bookkeeping, not a failure.
			if !errors.Is(out.err, context.Canceled) {
				st.failures++
				s.observeFailure(at.r, at.probe)
				if firstErr == nil {
					firstErr = out.err
				}
			} else if at.probe {
				// Not a real failure, but the probe attempt is over: give
				// the slot back so the next pick can probe again.
				at.r.probing.Store(false)
			}
			if attempts < len(s.replicas) {
				if r, probe := s.pick(tried, minVer); r != nil {
					attempts++
					s.failovers.Add(1)
					launch(r, false, probe)
					continue
				}
			}
			if len(live) == 0 {
				if firstErr == nil {
					firstErr = out.err
				}
				return zero, st, fmt.Errorf("replica: %s failed on %d replica(s): %w (%w)",
					op, attempts, firstErr, errExhausted)
			}
			// A hedge (or failover) is still in flight; its answer may yet
			// save the operation.
		}
	}
}

// noReplicaError explains an empty pick: either the read-your-writes
// fence excluded every replica, or the set is empty of candidates.
func (s *Set) noReplicaError(op string, minVer uint64) error {
	if minVer > 0 {
		return fmt.Errorf("replica: %s: no replica has caught up to version %d (read-your-writes)", op, minVer)
	}
	return fmt.Errorf("replica: %s: no replica available", op)
}

// chargeOverhead books the non-winner work of one routed operation:
// every hedge launched is a parallel invocation (cost, no critical
// path), every real failure is a sequential retry (both).
func (s *Set) chargeOverhead(ctx context.Context, st *doStats) {
	for i := 0; i < st.hedges; i++ {
		s.meter.ChargeHedge(ctx)
	}
	for i := 0; i < st.failures; i++ {
		s.meter.ChargeRetry(ctx)
	}
}

// annotate records the routing outcome on the operation's span.
func annotate(sp *obs.Span, st *doStats) {
	if sp == nil || st.winner == nil {
		return
	}
	sp.SetAttr(obs.Int("replica", st.winner.idx), obs.Int("hedges", st.hedges),
		obs.Str("hedge_win", fmt.Sprint(st.hedgeWin)))
}

// Search implements texservice.Service: a batch of one.
func (s *Set) Search(ctx context.Context, e textidx.Expr, form texservice.Form) (*texservice.Result, error) {
	return texservice.Single(s.search(ctx, false, []textidx.Expr{e}, form))
}

// search is the Set's one request path: route the request whole to one
// replica with hedging and failover (the replica receives the call the
// Set was asked for, see texservice.Invoke) and charge the root meter
// once with the winner's result — a single invocation, mirroring the
// single-backend contract — plus the hedge/retry overhead.
func (s *Set) search(ctx context.Context, batch bool, exprs []textidx.Expr, form texservice.Form) ([]*texservice.Result, error) {
	op, span := "search", "replica.search"
	if batch {
		op, span = "batch search", "replica.batchsearch"
	}
	ctx, sp := obs.StartSpan(ctx, span)
	defer sp.End()
	if err := texservice.CheckTermLimit(exprs, s.maxTerms); err != nil {
		return nil, err
	}
	out, st, err := do(ctx, s, op, FreshReads(ctx), func(ctx context.Context, svc texservice.Service) ([]*texservice.Result, error) {
		return texservice.Invoke(ctx, svc, batch, exprs, form)
	})
	if err != nil {
		return nil, err
	}
	postings, docs := 0, 0
	for _, res := range out {
		postings += res.Postings
		docs += len(res.Hits)
	}
	s.meter.ChargeSearch(ctx, postings, docs, form)
	s.chargeOverhead(ctx, st)
	annotate(sp, st)
	return out, nil
}

// Retrieve implements texservice.Service: any replica holds the whole
// partition, so the point lookup is routed like a search.
func (s *Set) Retrieve(ctx context.Context, id textidx.DocID) (textidx.Document, error) {
	ctx, sp := obs.StartSpan(ctx, "replica.retrieve")
	defer sp.End()
	doc, st, err := do(ctx, s, "retrieve", FreshReads(ctx), func(ctx context.Context, svc texservice.Service) (textidx.Document, error) {
		return svc.Retrieve(ctx, id)
	})
	if err != nil {
		return textidx.Document{}, err
	}
	s.meter.ChargeRetrieve(ctx)
	s.chargeOverhead(ctx, st)
	annotate(sp, st)
	return doc, nil
}

// NumDocs implements texservice.Service: replicas are copies, so the
// first reachable one answers for all.
func (s *Set) NumDocs() (int, error) {
	var firstErr error
	for _, r := range s.replicas {
		n, err := r.svc.NumDocs()
		if err == nil {
			return n, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return 0, fmt.Errorf("replica: numdocs: %w", firstErr)
}

// MaxTerms implements texservice.Service.
func (s *Set) MaxTerms() int { return s.maxTerms }

// ShortFields implements texservice.Service.
func (s *Set) ShortFields() []string {
	return append([]string(nil), s.shortFields...)
}

// Meter implements texservice.Service: the root meter, charged once per
// logical operation with the winner's result plus hedge/retry overhead.
func (s *Set) Meter() *texservice.Meter { return s.meter }

// BatchSearch implements texservice.BatchSearcher: the whole batch is routed to one replica (hedged and failed over
// like any call) and charged as a single invocation.
func (s *Set) BatchSearch(ctx context.Context, exprs []textidx.Expr, form texservice.Form) ([]*texservice.Result, error) {
	return s.search(ctx, true, exprs, form)
}

// TermDocFrequency implements texservice.StatsProvider. Statistics are
// metadata traffic: routed (and failed over) like any call, but charged
// nothing.
func (s *Set) TermDocFrequency(ctx context.Context, field, term string) (int, error) {
	df, _, err := do(ctx, s, "docfreq", FreshReads(ctx), func(ctx context.Context, svc texservice.Service) (int, error) {
		return svc.TermDocFrequency(ctx, field, term)
	})
	return df, err
}

// InFlight snapshots each replica's in-flight count (observability and
// leak checks).
func (s *Set) InFlight() []int {
	out := make([]int, len(s.replicas))
	for i, r := range s.replicas {
		out[i] = int(r.inflight.Load())
	}
	return out
}

var _ texservice.Service = (*Set)(nil)
