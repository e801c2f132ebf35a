package texservice

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"slices"
	"syscall"
	"testing"
	"time"

	"textjoin/internal/textidx"
)

func TestRetryPolicyDelayGrowth(t *testing.T) {
	p := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond,
		Multiplier: 2, Jitter: 0}
	wants := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		50 * time.Millisecond, 50 * time.Millisecond, // capped
	}
	for retry, want := range wants {
		if got := p.delay(nil, retry); got != want {
			t.Errorf("delay(%d) = %v, want %v", retry, got, want)
		}
	}
}

func TestRetryPolicyJitterBounds(t *testing.T) {
	p := RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second,
		Multiplier: 2, Jitter: 0.5}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		d := p.delay(rng, 0)
		if d < 75*time.Millisecond || d > 125*time.Millisecond {
			t.Fatalf("jittered delay %v outside ±25%% of base", d)
		}
	}
}

func TestIsTransient(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{io.EOF, true},
		{io.ErrUnexpectedEOF, true},
		{net.ErrClosed, true},
		{syscall.ECONNRESET, true},
		{syscall.ECONNREFUSED, true},
		{syscall.EPIPE, true},
		{fmt.Errorf("wrapped: %w", io.EOF), true},
		{errors.New("texservice: unknown op"), false},
		{&faultError{cause: ErrInjected, transient: true}, true},
		{&faultError{cause: ErrInjected, transient: false}, false},
		{fmt.Errorf("outer: %w", &faultError{cause: ErrConnDrop, transient: true}), true},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("IsTransient(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestRetryingRecoversTransientFailures(t *testing.T) {
	local, err := NewLocal(testIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	flaky := NewFaulty(local, FaultConfig{ErrorEvery: 2}) // every 2nd op fails
	r := NewRetrying(flaky, RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond})

	expr := textidx.Term{Field: "title", Word: "text"}
	for i := 0; i < 6; i++ {
		res, err := r.Search(bg, expr, FormShort)
		if err != nil {
			t.Fatalf("search %d: %v", i, err)
		}
		if len(res.Hits) != 2 {
			t.Fatalf("search %d: %d hits", i, len(res.Hits))
		}
	}
	if r.Retries() == 0 {
		t.Fatal("no retries recorded despite injected failures")
	}
	u := local.Meter().Snapshot()
	if u.Retries != r.Retries() {
		t.Fatalf("meter retries %d != decorator retries %d", u.Retries, r.Retries())
	}
	// Each retry re-charges the invocation overhead c_i.
	min := float64(u.Searches)*local.Meter().Costs().CI + float64(u.Retries)*local.Meter().Costs().CI
	if u.Cost < min {
		t.Fatalf("cost %v below %v: retries not charged", u.Cost, min)
	}
}

func TestRetryingExhaustsBudget(t *testing.T) {
	local, err := NewLocal(testIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	flaky := NewFaulty(local, FaultConfig{ErrorEvery: 1})
	r := NewRetrying(flaky, RetryPolicy{MaxAttempts: 4, BaseDelay: time.Microsecond})
	_, err = r.Retrieve(bg, 0)
	if err == nil {
		t.Fatal("exhausted retries returned no error")
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("error does not unwrap to cause: %v", err)
	}
	if flaky.Calls() != 4 {
		t.Fatalf("attempts = %d, want 4", flaky.Calls())
	}
}

// TestRetryingForwardsCapabilities: batched and statistics calls are
// retried through a flaky inner service like searches are. (That each
// capability reaches the inner service at all, or is refused with its
// sentinel, is TestDecoratorContract's.)
func TestRetryingForwardsCapabilities(t *testing.T) {
	local, err := NewLocal(testIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRetrying(NewFaulty(local, FaultConfig{ErrorEvery: 2}), RetryPolicy{
		MaxAttempts: 3, BaseDelay: time.Microsecond})

	exprs := []textidx.Expr{
		textidx.Term{Field: "title", Word: "text"},
		textidx.Term{Field: "author", Word: "gravano"},
	}
	for i := 0; i < 3; i++ {
		res, err := r.BatchSearch(bg, exprs, FormShort)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if len(res) != 2 {
			t.Fatalf("batch %d: %d results", i, len(res))
		}
		df, err := r.TermDocFrequency(bg, "title", "text")
		if err != nil || df != 2 {
			t.Fatalf("docfreq %d = %d, %v", i, df, err)
		}
	}
}

// TestDeriveSeedDecorrelates: derived retry seeds must be pairwise
// distinct (for any base, including zero) and stable — retriers that
// share one jitter stream retry a down backend in lockstep, turning every
// recovery into a synchronized wave.
func TestDeriveSeedDecorrelates(t *testing.T) {
	for _, base := range []int64{0, 1, 42, -7} {
		seen := map[int64]bool{}
		for k := 0; k < 64; k++ {
			s := DeriveSeed(base, k)
			if s == 0 {
				t.Fatalf("base %d retrier %d: derived seed 0 (the unseeded sentinel)", base, k)
			}
			if seen[s] {
				t.Fatalf("base %d: retrier %d collides with an earlier one (seed %d)", base, k, s)
			}
			seen[s] = true
			if again := DeriveSeed(base, k); again != s {
				t.Fatalf("base %d retrier %d: unstable derivation %d vs %d", base, k, again, s)
			}
		}
	}
	// Different bases stay different streams for the same retrier.
	if DeriveSeed(1, 3) == DeriveSeed(2, 3) {
		t.Error("distinct bases collapsed to one seed")
	}
	// The formula is fixed: replica fleets derive their partitions'
	// routing seeds from it, so a change would move every fleet's routing.
	if got := DeriveSeed(31, 1); got != 31+2*2654435769 {
		t.Errorf("DeriveSeed(31, 1) = %d, want %d", got, int64(31+2*2654435769))
	}
}

// TestDerivedSeedsDecorrelateJitter: Retrying wrappers seeded with
// DeriveSeed(99, k) back off after pairwise-distinct first delays, so
// retriers that fail at the same instant do not retry at the same
// instant, and each k repeats its own delay sequence. A delay is a pure
// function of the policy and its seed, so no clock is read.
func TestDerivedSeedsDecorrelateJitter(t *testing.T) {
	policy := RetryPolicy{MaxAttempts: 4, BaseDelay: 20 * time.Millisecond,
		MaxDelay: time.Second, Jitter: 1}
	delays := func(k int) []time.Duration {
		p := policy
		p.Seed = DeriveSeed(99, k)
		r := NewRetrying(nil, p)
		out := make([]time.Duration, p.MaxAttempts-1)
		for i := range out {
			out[i] = r.policy.delay(r.rng, i)
		}
		return out
	}
	first := map[time.Duration]int{}
	for k := 0; k < 4; k++ {
		seq := delays(k)
		if other, ok := first[seq[0]]; ok {
			t.Errorf("retriers %d and %d back off after the same first delay %v", other, k, seq[0])
		}
		first[seq[0]] = k
		if again := delays(k); !slices.Equal(again, seq) {
			t.Errorf("retrier %d: delay sequence %v, then %v", k, seq, again)
		}
	}
}

// flakyVersion fails its first IndexVersion call transiently.
type flakyVersion struct {
	Service
	calls int
}

func (f *flakyVersion) IndexVersion(context.Context) (uint64, error) {
	f.calls++
	if f.calls == 1 {
		return 0, &faultError{cause: ErrConnDrop, transient: true}
	}
	return 7, nil
}

// TestRetryingRetriesIndexVersion: the version read is retried like every
// other operation, and the retry is charged to the inner service's meter.
func TestRetryingRetriesIndexVersion(t *testing.T) {
	local, err := NewLocal(testIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	inner := &flakyVersion{Service: local}
	r := NewRetrying(inner, RetryPolicy{MaxAttempts: 2, BaseDelay: time.Microsecond})
	v, err := r.IndexVersion(bg)
	if err != nil || v != 7 {
		t.Fatalf("IndexVersion = %d, %v; want 7 after one retry", v, err)
	}
	if inner.calls != 2 || r.Retries() != 1 || local.Meter().Snapshot().Retries != 1 {
		t.Fatalf("calls %d, retries %d, metered retries %d; want 2, 1, 1",
			inner.calls, r.Retries(), local.Meter().Snapshot().Retries)
	}
}
