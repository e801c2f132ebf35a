package join

import (
	"errors"
	"testing"

	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
)

// failingMethods is the method set the failure tests drive.
func failingMethods() []Method {
	return []Method{
		TS{},
		RTP{},
		SJRTP{},
		PTS{ProbeColumns: []string{"name"}},
		PTS{ProbeColumns: []string{"name"}, Lazy: true},
		PRTP{ProbeColumns: []string{"name"}},
	}
}

// TestMethodsSurfaceServiceErrors: every method must return the injected
// error (not panic, not silently drop rows) regardless of when in its
// execution the failure strikes.
func TestMethodsSurfaceServiceErrors(t *testing.T) {
	ix := corpus(t)
	for _, longForm := range []bool{false, true} {
		spec := q3Spec(t, longForm)
		spec.TextSel = textidx.Term{Field: "year", Word: "1994"}
		for _, m := range failingMethods() {
			// Fail at several positions: first call, an early call, a
			// late call.
			for _, every := range []int{1, 2, 5} {
				inner := service(t, ix)
				flaky := texservice.NewFaulty(inner, texservice.FaultConfig{ErrorEvery: every})
				if err := m.Applicable(spec, flaky); err != nil {
					continue
				}
				_, err := m.Execute(bg, spec, flaky)
				if err == nil {
					// Some schedules may finish before the nth call when
					// the method needs fewer than `every` operations;
					// only every=1 must always fail.
					if every == 1 {
						t.Errorf("longForm=%v %s every=1: no error surfaced", longForm, m.Name())
					}
					continue
				}
				if !errors.Is(err, texservice.ErrInjected) {
					t.Errorf("longForm=%v %s every=%d: wrong error %v", longForm, m.Name(), every, err)
				}
			}
		}
	}
}

// TestTSBatchSurfacesBatchErrors covers the batched path: Faulty gates
// BatchSearch too, so an always-failing service must surface through the
// batched method.
func TestTSBatchSurfacesBatchErrors(t *testing.T) {
	ix := corpus(t)
	spec := q3Spec(t, false)
	flaky := texservice.NewFaulty(service(t, ix), texservice.FaultConfig{ErrorEvery: 1})
	if _, err := (TS{Batched: true}).Execute(bg, spec, flaky); !errors.Is(err, texservice.ErrInjected) {
		t.Fatalf("batched failure not surfaced: %v", err)
	}
}

// TestProbeReduceSurfacesErrors covers the plan-level reducer.
func TestProbeReduceSurfacesErrors(t *testing.T) {
	ix := corpus(t)
	spec := q3Spec(t, false)
	flaky := texservice.NewFaulty(service(t, ix), texservice.FaultConfig{ErrorEvery: 1})
	if _, _, err := ProbeReduce(bg, spec, []string{"name"}, flaky, false); !errors.Is(err, texservice.ErrInjected) {
		t.Fatalf("probe reduce error = %v", err)
	}
}

// TestPermanentFaultsAreNotRetried: with Permanent set, a Retrying
// decorator must not mask the failure — the first injected error
// surfaces and no retries are charged.
func TestPermanentFaultsAreNotRetried(t *testing.T) {
	ix := corpus(t)
	spec := q3Spec(t, false)
	inner := service(t, ix)
	flaky := texservice.NewFaulty(inner, texservice.FaultConfig{ErrorEvery: 1, Permanent: true})
	svc := texservice.NewRetrying(flaky, texservice.RetryPolicy{MaxAttempts: 3, BaseDelay: 1})
	if _, err := (TS{}).Execute(bg, spec, svc); !errors.Is(err, texservice.ErrInjected) {
		t.Fatalf("permanent fault not surfaced: %v", err)
	}
	if n := svc.Retries(); n != 0 {
		t.Fatalf("permanent fault was retried %d times", n)
	}
	if got := inner.Meter().Snapshot().Retries; got != 0 {
		t.Fatalf("meter recorded %d retries for a permanent fault", got)
	}
}
