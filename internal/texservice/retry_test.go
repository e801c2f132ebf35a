package texservice

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
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
