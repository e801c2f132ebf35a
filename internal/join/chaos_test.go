package join

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
)

// chaosMethods is the five-method set of the paper (§3) the chaos
// property tests exercise, plus batched tuple substitution.
func chaosMethods() []Method {
	return []Method{
		TS{},
		TS{Batched: true},
		RTP{},
		SJRTP{},
		PTS{ProbeColumns: []string{"name"}},
		PRTP{ProbeColumns: []string{"name"}},
	}
}

// TestChaosMethodsMatchNaive: under a seeded random fault rate with
// enough retry budget to outlast it, every join method still produces
// exactly the naive oracle's rows — transient failures with retries are
// invisible to correctness.
func TestChaosMethodsMatchNaive(t *testing.T) {
	ix := corpus(t)
	for _, longForm := range []bool{false, true} {
		spec := q3Spec(t, longForm)
		spec.TextSel = textidx.Term{Field: "year", Word: "1994"}
		want, err := NaiveJoin(spec, ix)
		if err != nil {
			t.Fatal(err)
		}
		if want.Cardinality() == 0 {
			t.Fatal("fixture produces an empty join; chaos tests would be vacuous")
		}
		for _, m := range chaosMethods() {
			for _, seed := range []int64{1, 7, 42} {
				inner := service(t, ix)
				flaky := texservice.NewFaulty(inner, texservice.FaultConfig{
					ErrorRate: 0.3, Seed: seed,
				})
				svc := texservice.NewRetrying(flaky, texservice.RetryPolicy{
					MaxAttempts: 25, BaseDelay: time.Microsecond, MaxDelay: time.Millisecond,
				})
				if err := m.Applicable(spec, svc); err != nil {
					continue
				}
				res, err := m.Execute(bg, spec, svc)
				if err != nil {
					t.Fatalf("longForm=%v %s seed=%d: %v (injected %d faults)",
						longForm, m.Name(), seed, err, flaky.Injected())
				}
				if !SameRows(res.Table, want) {
					t.Errorf("longForm=%v %s seed=%d: rows differ from naive oracle",
						longForm, m.Name(), seed)
				}
				if flaky.Injected() > 0 {
					if got := inner.Meter().Snapshot().Retries; got == 0 {
						t.Errorf("longForm=%v %s seed=%d: %d faults injected but no retries metered",
							longForm, m.Name(), seed, flaky.Injected())
					}
				}
			}
		}
	}
}

// TestChaosBudgetExhaustion: when every operation fails and the attempt
// budget runs out, each method returns a clean wrapped error naming the
// exhausted budget — no panic, no goroutine leak.
func TestChaosBudgetExhaustion(t *testing.T) {
	ix := corpus(t)
	spec := q3Spec(t, false)
	spec.TextSel = textidx.Term{Field: "year", Word: "1994"}
	before := runtime.NumGoroutine()
	for _, m := range chaosMethods() {
		flaky := texservice.NewFaulty(service(t, ix), texservice.FaultConfig{ErrorEvery: 1})
		svc := texservice.NewRetrying(flaky, texservice.RetryPolicy{
			MaxAttempts: 3, BaseDelay: time.Microsecond,
		})
		if err := m.Applicable(spec, svc); err != nil {
			continue
		}
		_, err := m.Execute(bg, spec, svc)
		if err == nil {
			t.Fatalf("%s: no error despite every attempt failing", m.Name())
		}
		if !errors.Is(err, texservice.ErrInjected) {
			t.Errorf("%s: error does not unwrap to the injected cause: %v", m.Name(), err)
		}
		if !strings.Contains(err.Error(), "after 3 attempts") {
			t.Errorf("%s: error does not name the exhausted budget: %v", m.Name(), err)
		}
	}
	// Give worker goroutines a moment to drain, then check for leaks.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutine leak: %d before, %d after", before, after)
	}
}

// TestCancellationAbortsJoin: a long SJ+RTP execution against a
// high-latency service must return promptly with context.Canceled when
// the caller gives up — the cancellation threads all the way down to the
// service calls.
func TestCancellationAbortsJoin(t *testing.T) {
	ix := corpus(t)
	spec := q3Spec(t, false)
	spec.TextSel = textidx.Term{Field: "year", Word: "1994"}
	// Every call takes 10s unless the context interrupts the injected
	// latency; the whole join would take minutes.
	svc := texservice.NewFaulty(service(t, ix), texservice.FaultConfig{Latency: 10 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := (SJRTP{}).Execute(ctx, spec, svc)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled join returned %v", err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("cancellation took %v to take effect", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled join did not return")
	}
}

// TestCancelledRetryBackoffReturnsContextError: cancellation during the
// backoff sleep (not just during the call) also surfaces promptly.
func TestCancelledRetryBackoffReturnsContextError(t *testing.T) {
	ix := corpus(t)
	spec := q3Spec(t, false)
	flaky := texservice.NewFaulty(service(t, ix), texservice.FaultConfig{ErrorEvery: 1})
	svc := texservice.NewRetrying(flaky, texservice.RetryPolicy{
		MaxAttempts: 10, BaseDelay: 10 * time.Second, // park in backoff
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := (TS{}).Execute(ctx, spec, svc)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled backoff returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled backoff did not return")
	}
}
