package texservice

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"textjoin/internal/obs"
	"textjoin/internal/textidx"
)

// Faulty decorates a Service with configurable fault injection, promoting
// the chaos harness the method tests need into a first-class citizen: the
// same injector runs inside the test suite (against Local) and inside
// `textserve -chaos` (under the TCP server), so the client's pool, retry
// and deadline machinery can be exercised against a misbehaving remote
// end exactly as the paper's WAN setting misbehaved.
//
// Modes, all combinable:
//
//   - ErrorEvery: every Nth operation fails with ErrInjected.
//   - ErrorRate:  each operation independently fails with the given
//     probability, from a seeded generator (deterministic chaos).
//   - DropEvery:  every Nth operation fails with ErrConnDrop; the TCP
//     server translates it into closing the connection without replying.
//   - HangEvery:  every Nth operation blocks until the context is done —
//     the hung-server case that only deadlines/cancellation can unwedge.
//   - Latency:    every operation is delayed (context-aware).
//   - DocLatency: every document a search transmits (and every retrieve)
//     adds this delay, modelling transmission time proportional to the
//     result size — the knob that makes scatter-gather speedups visible
//     in wall-clock time, since each shard only transmits its fraction.
//   - Brownout:   a sustained multiplier on both latency knobs (SetBrownout
//     at runtime), modelling a backend that is up but degraded — the
//     slow-replica case hedged requests exist for. 1 (or 0) = healthy.
//
// Injected errors are transient (retryable) unless Permanent is set.
// Metadata operations (NumDocs, MaxTerms, ShortFields, Meter, the index
// version, snapshot pins) pass through unharmed. Batch, statistics and
// ingest calls pass the gate like searches, whether the inner service
// answers them or refuses them.
type Faulty struct {
	Forward
	cfg      FaultConfig
	latency  atomic.Int64  // current per-operation latency in ns; see SetLatency
	brownout atomic.Uint64 // latency multiplier as float64 bits; 0 = 1x; see SetBrownout

	mu       sync.Mutex
	rng      *rand.Rand
	calls    int
	injected int
	stats    FaultStats
}

// FaultStats is a snapshot of everything a Faulty has injected, broken
// down by kind, so chaos tests can assert that injection actually
// happened (and how much) instead of inferring it from downstream
// symptoms. Calls counts gated operations; Injected is the sum of
// Errors, Drops and Hangs.
type FaultStats struct {
	Calls      int           // gated operations seen
	Injected   int           // operations with a fault injected
	Errors     int           // ErrInjected failures
	Drops      int           // ErrConnDrop failures
	Hangs      int           // operations blocked until cancellation
	DelayedOps int           // operations delayed by the Latency knob
	DocDelays  int           // documents delayed by the DocLatency knob
	DelayTotal time.Duration // total injected delay (latency + doc latency)
}

// ErrInjected is the cause of failures injected by Faulty's error modes.
var ErrInjected = errors.New("texservice: injected fault")

// ErrConnDrop is the cause of Faulty's connection-drop failures. The TCP
// server recognizes it and severs the connection instead of answering.
var ErrConnDrop = errors.New("texservice: injected connection drop")

// faultError carries the retryability verdict of an injected failure.
type faultError struct {
	cause     error
	transient bool
}

func (e *faultError) Error() string   { return e.cause.Error() }
func (e *faultError) Unwrap() error   { return e.cause }
func (e *faultError) Transient() bool { return e.transient }

// FaultConfig configures a Faulty decorator. The zero value injects
// nothing.
type FaultConfig struct {
	ErrorEvery int           // fail every Nth operation (0 = off)
	ErrorRate  float64       // per-operation failure probability (0 = off)
	DropEvery  int           // drop the connection every Nth operation (0 = off)
	HangEvery  int           // hang until cancellation every Nth operation (0 = off)
	Latency    time.Duration // added to every operation (0 = off)
	DocLatency time.Duration // added per transmitted document (0 = off)
	Brownout   float64       // sustained multiplier on both latency knobs (0 or 1 = healthy)
	Seed       int64         // seeds the ErrorRate generator (default 1)
	Permanent  bool          // injected errors are permanent (not retryable)
}

// ParseFaultConfig parses the comma-separated key=value syntax of the
// `textserve -chaos` flag, e.g. "rate=0.1,latency=20ms,drop=50,seed=7".
// Keys: every, rate, drop, hang, latency, doclat, brownout, seed,
// permanent.
func ParseFaultConfig(s string) (FaultConfig, error) {
	var cfg FaultConfig
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, _ := strings.Cut(part, "=")
		var err error
		switch key {
		case "every":
			cfg.ErrorEvery, err = strconv.Atoi(val)
		case "rate":
			cfg.ErrorRate, err = strconv.ParseFloat(val, 64)
		case "drop":
			cfg.DropEvery, err = strconv.Atoi(val)
		case "hang":
			cfg.HangEvery, err = strconv.Atoi(val)
		case "latency":
			cfg.Latency, err = time.ParseDuration(val)
		case "doclat":
			cfg.DocLatency, err = time.ParseDuration(val)
		case "brownout":
			cfg.Brownout, err = strconv.ParseFloat(val, 64)
		case "seed":
			cfg.Seed, err = strconv.ParseInt(val, 10, 64)
		case "permanent":
			cfg.Permanent = true
			if val != "" && val != "true" {
				cfg.Permanent, err = strconv.ParseBool(val)
			}
		default:
			return FaultConfig{}, fmt.Errorf("texservice: unknown chaos key %q", key)
		}
		if err != nil {
			return FaultConfig{}, fmt.Errorf("texservice: bad chaos value %q: %w", part, err)
		}
	}
	if cfg.ErrorRate < 0 || cfg.ErrorRate > 1 {
		return FaultConfig{}, fmt.Errorf("texservice: chaos rate %v outside [0,1]", cfg.ErrorRate)
	}
	if cfg.Brownout < 0 {
		return FaultConfig{}, fmt.Errorf("texservice: chaos brownout %v is negative", cfg.Brownout)
	}
	return cfg, nil
}

// NewFaulty wraps a service with the given fault configuration.
func NewFaulty(inner Service, cfg FaultConfig) *Faulty {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	f := &Faulty{Forward: Forward{inner}, cfg: cfg, rng: rand.New(rand.NewSource(seed))}
	f.latency.Store(int64(cfg.Latency))
	if cfg.Brownout > 0 {
		f.SetBrownout(cfg.Brownout)
	}
	return f
}

// SetLatency changes the per-operation latency at runtime. Safe to call
// concurrently with operations; lets a harness warm caches against a fast
// backend and then degrade it mid-run.
func (f *Faulty) SetLatency(d time.Duration) { f.latency.Store(int64(d)) }

// SetBrownout changes the sustained latency multiplier at runtime: every
// injected delay (both the per-operation and the per-document knob) is
// scaled by factor until the next call. A factor of 1 (or anything below)
// restores the healthy baseline. This is the deterministic "slow but
// alive" degradation the replica-hedging experiments brown one backend
// out with — unlike SetLatency it composes with a nonzero baseline, so
// "32x slower" does not require knowing the current latency.
func (f *Faulty) SetBrownout(factor float64) {
	if factor < 1 {
		factor = 1
	}
	f.brownout.Store(math.Float64bits(factor))
}

// brownoutFactor returns the current multiplier (1 when never set).
func (f *Faulty) brownoutFactor() float64 {
	bits := f.brownout.Load()
	if bits == 0 {
		return 1
	}
	return math.Float64frombits(bits)
}

// gate applies latency and decides this operation's fate.
func (f *Faulty) gate(ctx context.Context) error {
	delayed := time.Duration(float64(f.latency.Load()) * f.brownoutFactor())
	if delayed > 0 {
		if err := sleepCtx(ctx, delayed); err != nil {
			return err
		}
	}
	f.mu.Lock()
	f.calls++
	f.stats.Calls++
	n := f.calls
	hang := f.cfg.HangEvery > 0 && n%f.cfg.HangEvery == 0
	drop := !hang && f.cfg.DropEvery > 0 && n%f.cfg.DropEvery == 0
	fail := !hang && !drop && f.cfg.ErrorEvery > 0 && n%f.cfg.ErrorEvery == 0
	if !hang && !drop && !fail && f.cfg.ErrorRate > 0 && f.rng.Float64() < f.cfg.ErrorRate {
		fail = true
	}
	if hang || drop || fail {
		f.injected++
		f.stats.Injected++
	}
	switch {
	case hang:
		f.stats.Hangs++
	case drop:
		f.stats.Drops++
	case fail:
		f.stats.Errors++
	}
	if delayed > 0 {
		f.stats.DelayedOps++
		f.stats.DelayTotal += delayed
	}
	f.mu.Unlock()
	switch {
	case hang:
		obs.SpanFrom(ctx).SetAttr(obs.Str("fault", "hang"))
		<-ctx.Done()
		return ctx.Err()
	case drop:
		obs.SpanFrom(ctx).SetAttr(obs.Str("fault", "drop"))
		return &faultError{cause: ErrConnDrop, transient: !f.cfg.Permanent}
	case fail:
		obs.SpanFrom(ctx).SetAttr(obs.Str("fault", "error"))
		return &faultError{cause: ErrInjected, transient: !f.cfg.Permanent}
	}
	return nil
}

// transmit applies the per-document latency for nDocs documents.
func (f *Faulty) transmit(ctx context.Context, nDocs int) error {
	if f.cfg.DocLatency <= 0 || nDocs <= 0 {
		return nil
	}
	d := time.Duration(float64(nDocs) * float64(f.cfg.DocLatency) * f.brownoutFactor())
	f.mu.Lock()
	f.stats.DocDelays += nDocs
	f.stats.DelayTotal += d
	f.mu.Unlock()
	return sleepCtx(ctx, d)
}

// inject runs op behind the fault gate and, when docs is non-nil,
// applies the per-document latency for the documents op transmitted.
func inject[T any](ctx context.Context, f *Faulty, docs func(T) int, op func() (T, error)) (T, error) {
	var zero T
	if err := f.gate(ctx); err != nil {
		return zero, err
	}
	v, err := op()
	if err != nil {
		return zero, err
	}
	if docs != nil {
		if err := f.transmit(ctx, docs(v)); err != nil {
			return zero, err
		}
	}
	return v, nil
}

// Search implements Service.
func (f *Faulty) Search(ctx context.Context, e textidx.Expr, form Form) (*Result, error) {
	return inject(ctx, f, func(res *Result) int { return len(res.Hits) }, func() (*Result, error) {
		return f.Service.Search(ctx, e, form)
	})
}

// Retrieve implements Service.
func (f *Faulty) Retrieve(ctx context.Context, id textidx.DocID) (textidx.Document, error) {
	return inject(ctx, f, func(textidx.Document) int { return 1 }, func() (textidx.Document, error) {
		return f.Service.Retrieve(ctx, id)
	})
}

// BatchSearch implements BatchSearcher.
func (f *Faulty) BatchSearch(ctx context.Context, exprs []textidx.Expr, form Form) ([]*Result, error) {
	docs := func(out []*Result) (n int) {
		for _, res := range out {
			n += len(res.Hits)
		}
		return n
	}
	return inject(ctx, f, docs, func() ([]*Result, error) {
		return f.Service.BatchSearch(ctx, exprs, form)
	})
}

// TermDocFrequency implements StatsProvider.
func (f *Faulty) TermDocFrequency(ctx context.Context, field, term string) (int, error) {
	return inject(ctx, f, nil, func() (int, error) {
		return f.Service.TermDocFrequency(ctx, field, term)
	})
}

// Ingest implements Ingestor. Writes pass through the same fault gate
// as reads, so chaos suites exercise lost acks and retried batches on
// the write path too.
func (f *Faulty) Ingest(ctx context.Context, ops []IngestOp) (*IngestResult, error) {
	return inject(ctx, f, nil, func() (*IngestResult, error) {
		return f.Service.Ingest(ctx, ops)
	})
}

// Calls reports the number of gated operations seen.
func (f *Faulty) Calls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// Injected reports how many operations had a fault injected.
func (f *Faulty) Injected() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// Stats returns a snapshot of the per-kind injection counters.
func (f *Faulty) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}
