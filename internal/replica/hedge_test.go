package replica

import (
	"testing"
	"time"

	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
)

// TestHedgeBudgetAllocs: on a warm Set the hedge budget costs no
// allocation, whether a call recorded since the last budget (a re-sort)
// or not (the sorted copy is reused), and it stays the p95 of the ring.
func TestHedgeBudgetAllocs(t *testing.T) {
	ix := textidx.NewIndex()
	ix.MustAdd(textidx.Document{ExtID: "d0", Fields: map[string]string{"title": "text"}})
	ix.Freeze()
	svc, err := texservice.NewLocal(ix)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New([]texservice.Service{svc, svc})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= hedgeRingSize; i++ {
		s.recordLatency(time.Duration(i) * time.Millisecond)
	}
	if got, want := s.hedgeBudget(), time.Duration(hedgeRingSize*95/100+1)*time.Millisecond; got != want {
		t.Fatalf("budget over 1..%d ms = %v, want the p95 %v", hedgeRingSize, got, want)
	}
	if n := testing.AllocsPerRun(100, func() { s.hedgeBudget() }); n != 0 {
		t.Errorf("hedgeBudget with an unchanged ring: %v allocs per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		s.recordLatency(time.Millisecond)
		s.hedgeBudget()
	}); n != 0 {
		t.Errorf("hedgeBudget after a new sample: %v allocs per call, want 0", n)
	}
	for i := 0; i < hedgeRingSize; i++ {
		s.recordLatency(time.Microsecond)
	}
	if got := s.hedgeBudget(); got != DefaultHedgeMin {
		t.Fatalf("budget over a ring of 1 µs samples = %v, want the floor %v", got, DefaultHedgeMin)
	}
}
