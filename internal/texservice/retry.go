package texservice

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"syscall"
	"time"

	"textjoin/internal/obs"
	"textjoin/internal/textidx"
)

// This file implements the fault-tolerance layer of the loose integration:
// a retry policy with exponential backoff and jitter, a transient-error
// classifier, and a Retrying decorator usable around any Service. Every
// operation the Service boundary offers is idempotent — searches,
// retrieves and statistics are reads, and ingest ops are upserts and
// deletes — so all of them are safe to resend: the "idempotent-only"
// precondition for retrying holds by construction here.

// RetryPolicy configures retries of transient failures. The zero value
// retries nothing; DefaultRetryPolicy returns sensible defaults.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget including the first try.
	// Values below 1 are treated as 1 (no retries).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 10ms).
	BaseDelay time.Duration
	// MaxDelay caps the grown backoff (default 2s).
	MaxDelay time.Duration
	// Multiplier grows the delay per retry (default 2).
	Multiplier float64
	// Jitter spreads each delay uniformly over ±Jitter/2 of its value,
	// de-synchronizing concurrent retriers (default 0.5, range [0,1]).
	Jitter float64
	// Seed makes the jitter deterministic for tests (default 1).
	Seed int64
}

// DefaultRetryPolicy returns the default policy: 4 attempts, 10ms base
// delay doubling up to 2s, 50% jitter.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: 10 * time.Millisecond,
		MaxDelay: 2 * time.Second, Multiplier: 2, Jitter: 0.5, Seed: 1}
}

// DeriveSeed maps one base retry-policy seed to a distinct, deterministic
// seed for the k-th of several concurrent retriers (the endpoints of a
// sharded client, the partitions of a replica fleet), so they never share
// a jitter stream and back off in lockstep. The multiplier is an odd
// 32-bit constant (SplitMix-style), so distinct k always produce distinct
// seeds and a zero base (meaning "default") still fans out.
func DeriveSeed(base int64, k int) int64 {
	if base == 0 {
		base = 1
	}
	return base + int64(k+1)*0x9E3779B9
}

// withDefaults fills unset fields with the default policy's values.
func (p RetryPolicy) withDefaults() RetryPolicy {
	def := DefaultRetryPolicy()
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = def.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = def.MaxDelay
	}
	if p.Multiplier < 1 {
		p.Multiplier = def.Multiplier
	}
	if p.Jitter < 0 || p.Jitter > 1 {
		p.Jitter = def.Jitter
	}
	if p.Seed == 0 {
		p.Seed = def.Seed
	}
	return p
}

// delay computes the backoff before retry number `retry` (0-based),
// exponentially grown, capped, and jittered with the given source.
func (p RetryPolicy) delay(rng *rand.Rand, retry int) time.Duration {
	d := float64(p.BaseDelay)
	for i := 0; i < retry; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			break
		}
	}
	if d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter > 0 && rng != nil {
		d *= 1 - p.Jitter/2 + p.Jitter*rng.Float64()
	}
	return time.Duration(d)
}

// transienter is implemented by errors that carry their own retryability
// verdict (e.g. injected faults).
type transienter interface{ Transient() bool }

// IsTransient reports whether an error is worth retrying: network-level
// failures (connection reset/refused, closed or dropped connections, I/O
// timeouts) are transient; context cancellation and application errors
// (bad query, term limit, unknown document) are not.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var tr transienter
	if errors.As(err, &tr) {
		return tr.Transient()
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.EPIPE) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return ne.Timeout()
	}
	return false
}

// sleepCtx waits d or until the context is done, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Retrying decorates a Service with transient-failure retries under a
// RetryPolicy. Failed attempts are charged to the meter via ChargeRetry
// (the wasted invocation overhead is real work on the remote system).
// It is the one retry loop of the text-service stack. Batch, statistics,
// ingest and version calls are retried like searches; the other
// capabilities pass through, and one the inner service lacks is refused
// with its sentinel at once (a refusal is not transient).
type Retrying struct {
	Forward
	policy RetryPolicy

	mu      sync.Mutex
	rng     *rand.Rand
	retries int
}

// NewRetrying wraps a service with the given policy (zero fields are
// filled from DefaultRetryPolicy).
func NewRetrying(inner Service, policy RetryPolicy) *Retrying {
	p := policy.withDefaults()
	return &Retrying{Forward: Forward{inner}, policy: p, rng: rand.New(rand.NewSource(p.Seed))}
}

// retry runs op under r's retry loop. One span covers the whole logical
// operation and records how many attempts it took; the inner service's
// own spans (one per attempt) nest under it.
func retry[T any](ctx context.Context, r *Retrying, op string, f func(context.Context) (T, error)) (T, error) {
	ctx, sp := obs.StartSpan(ctx, "retry."+op)
	var used int
	if sp != nil {
		defer func() {
			sp.SetAttr(obs.Int("attempts", used))
			sp.End()
		}()
	}
	var zero T
	var err error
	for attempt := 0; attempt < r.policy.MaxAttempts; attempt++ {
		used = attempt + 1
		if attempt > 0 {
			r.Service.Meter().ChargeRetry(ctx)
			r.mu.Lock()
			r.retries++
			d := r.policy.delay(r.rng, attempt-1)
			r.mu.Unlock()
			if serr := sleepCtx(ctx, d); serr != nil {
				return zero, serr
			}
		}
		var v T
		if v, err = f(ctx); err == nil {
			return v, nil
		}
		if !IsTransient(err) || ctx.Err() != nil {
			return zero, err
		}
	}
	return zero, fmt.Errorf("texservice: %s failed after %d attempts: %w", op, r.policy.MaxAttempts, err)
}

// Search implements Service.
func (r *Retrying) Search(ctx context.Context, e textidx.Expr, form Form) (*Result, error) {
	return retry(ctx, r, "search", func(ctx context.Context) (*Result, error) {
		return r.Service.Search(ctx, e, form)
	})
}

// Retrieve implements Service.
func (r *Retrying) Retrieve(ctx context.Context, id textidx.DocID) (textidx.Document, error) {
	return retry(ctx, r, "retrieve", func(ctx context.Context) (textidx.Document, error) {
		return r.Service.Retrieve(ctx, id)
	})
}

// BatchSearch implements BatchSearcher when the inner service does.
func (r *Retrying) BatchSearch(ctx context.Context, exprs []textidx.Expr, form Form) ([]*Result, error) {
	return retry(ctx, r, "batch search", func(ctx context.Context) ([]*Result, error) {
		return r.Forward.BatchSearch(ctx, exprs, form)
	})
}

// TermDocFrequency implements StatsProvider when the inner service does.
func (r *Retrying) TermDocFrequency(ctx context.Context, field, term string) (int, error) {
	return retry(ctx, r, "docfreq", func(ctx context.Context) (int, error) {
		return r.Forward.TermDocFrequency(ctx, field, term)
	})
}

// Ingest implements Ingestor when the inner service does, retrying
// transient failures: puts are upserts and deletes are idempotent, so
// resending a batch whose ack was lost converges to the same state (the
// re-applied ops consume fresh sequence numbers but change nothing).
func (r *Retrying) Ingest(ctx context.Context, ops []IngestOp) (*IngestResult, error) {
	return retry(ctx, r, "ingest", func(ctx context.Context) (*IngestResult, error) {
		return r.Forward.Ingest(ctx, ops)
	})
}

// IndexVersion implements Versioned when the inner service does.
func (r *Retrying) IndexVersion(ctx context.Context) (uint64, error) {
	return retry(ctx, r, "version", func(ctx context.Context) (uint64, error) {
		return r.Forward.IndexVersion(ctx)
	})
}

// Retries reports how many retries this decorator has issued.
func (r *Retrying) Retries() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.retries
}
