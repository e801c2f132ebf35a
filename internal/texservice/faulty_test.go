package texservice

import (
	"context"
	"errors"
	"testing"
	"time"

	"textjoin/internal/textidx"
)

func TestParseFaultConfig(t *testing.T) {
	cfg, err := ParseFaultConfig("every=3,rate=0.25,drop=10,hang=20,latency=15ms,seed=7,permanent")
	if err != nil {
		t.Fatal(err)
	}
	want := FaultConfig{ErrorEvery: 3, ErrorRate: 0.25, DropEvery: 10, HangEvery: 20,
		Latency: 15 * time.Millisecond, Seed: 7, Permanent: true}
	if cfg != want {
		t.Fatalf("parsed %+v, want %+v", cfg, want)
	}
	if cfg, err := ParseFaultConfig(""); err != nil || cfg != (FaultConfig{}) {
		t.Fatalf("empty spec: %+v, %v", cfg, err)
	}
	if _, err := ParseFaultConfig("permanent=false"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"rate=2", "rate=-0.1", "every=x", "latency=fast", "bogus=1"} {
		if _, err := ParseFaultConfig(bad); err == nil {
			t.Errorf("bad spec %q accepted", bad)
		}
	}
}

func TestFaultyErrorEvery(t *testing.T) {
	local, err := NewLocal(testIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	f := NewFaulty(local, FaultConfig{ErrorEvery: 3})
	expr := textidx.Term{Field: "title", Word: "text"}
	var failures int
	for i := 1; i <= 9; i++ {
		_, err := f.Search(bg, expr, FormShort)
		if i%3 == 0 {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("call %d: err = %v, want injected", i, err)
			}
			failures++
		} else if err != nil {
			t.Fatalf("call %d: unexpected %v", i, err)
		}
	}
	if f.Calls() != 9 || f.Injected() != failures {
		t.Fatalf("calls=%d injected=%d, want 9/%d", f.Calls(), f.Injected(), failures)
	}
}

func TestFaultyErrorRateDeterminism(t *testing.T) {
	local, err := NewLocal(testIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	outcomes := func(seed int64) []bool {
		f := NewFaulty(local, FaultConfig{ErrorRate: 0.5, Seed: seed})
		var out []bool
		for i := 0; i < 50; i++ {
			_, err := f.Retrieve(bg, 0)
			out = append(out, err != nil)
		}
		return out
	}
	a, b := outcomes(7), outcomes(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different fault schedules")
		}
	}
	diff := false
	for i, v := range outcomes(8) {
		if v != a[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

func TestFaultyHangUntilCancel(t *testing.T) {
	local, err := NewLocal(testIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	f := NewFaulty(local, FaultConfig{HangEvery: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = f.Search(ctx, textidx.Term{Field: "title", Word: "text"}, FormShort)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hang returned %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("hang did not respect the deadline")
	}
}

func TestFaultyDropIsTransient(t *testing.T) {
	local, err := NewLocal(testIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	f := NewFaulty(local, FaultConfig{DropEvery: 1})
	_, err = f.Retrieve(bg, 0)
	if !errors.Is(err, ErrConnDrop) {
		t.Fatalf("drop returned %v", err)
	}
	if !IsTransient(err) {
		t.Fatal("connection drop not transient")
	}

	perm := NewFaulty(local, FaultConfig{ErrorEvery: 1, Permanent: true})
	_, err = perm.Retrieve(bg, 0)
	if IsTransient(err) {
		t.Fatal("permanent fault classified transient")
	}
}

func TestFaultyLatency(t *testing.T) {
	local, err := NewLocal(testIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	f := NewFaulty(local, FaultConfig{Latency: 30 * time.Millisecond})
	start := time.Now()
	if _, err := f.Search(bg, textidx.Term{Field: "title", Word: "text"}, FormShort); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("latency not injected: %v", elapsed)
	}
}

// TestChaosServer: a Faulty-backed TCP server with connection drops is
// survivable by a client behind a Retrying wrapper — the end-to-end
// `textserve -chaos` wiring.
func TestChaosServer(t *testing.T) {
	local, err := NewLocal(testIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	flaky := NewFaulty(local, FaultConfig{DropEvery: 3})
	srv := NewServer(flaky)
	srv.Logf = func(string, ...interface{}) {}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	remote, err := Dial(addr, nil, WithPoolSize(2))
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	r := NewRetrying(remote, RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond})
	expr := textidx.Term{Field: "title", Word: "text"}
	for i := 0; i < 12; i++ {
		res, err := r.Search(bg, expr, FormShort)
		if err != nil {
			t.Fatalf("search %d through chaos server: %v", i, err)
		}
		if len(res.Hits) != 2 {
			t.Fatalf("search %d: %d hits", i, len(res.Hits))
		}
	}
	if flaky.Injected() == 0 {
		t.Fatal("chaos server injected nothing; test is vacuous")
	}
}

// TestFaultStatsBreakdown: the per-kind injection counters let chaos
// tests assert that injection actually happened — and of which kind —
// instead of inferring it from downstream symptoms.
func TestFaultStatsBreakdown(t *testing.T) {
	local, err := NewLocal(testIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	expr := textidx.Term{Field: "title", Word: "text"}

	// Errors and drops interleave: with ErrorEvery=2 and DropEvery=3,
	// calls 2,4,8,10 error, 3,6,9 drop (drop wins ties like call 6).
	f := NewFaulty(local, FaultConfig{ErrorEvery: 2, DropEvery: 3})
	for i := 0; i < 10; i++ {
		f.Search(bg, expr, FormShort)
	}
	s := f.Stats()
	if s.Calls != 10 || s.Errors != 4 || s.Drops != 3 || s.Hangs != 0 {
		t.Fatalf("stats = %+v, want calls=10 errors=4 drops=3 hangs=0", s)
	}
	if s.Injected != s.Errors+s.Drops+s.Hangs {
		t.Fatalf("injected %d != errors+drops+hangs %d", s.Injected, s.Errors+s.Drops+s.Hangs)
	}

	// Hangs count even though the operation only returns on cancellation.
	fh := NewFaulty(local, FaultConfig{HangEvery: 1})
	ctx, cancel := context.WithTimeout(bg, 10*time.Millisecond)
	defer cancel()
	if _, err := fh.Search(ctx, expr, FormShort); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hung search returned %v, want deadline exceeded", err)
	}
	if s := fh.Stats(); s.Hangs != 1 || s.Injected != 1 {
		t.Fatalf("hang stats = %+v, want hangs=1 injected=1", s)
	}

	// Delay accounting: per-operation latency and per-document latency
	// both land in DelayTotal.
	fd := NewFaulty(local, FaultConfig{Latency: time.Millisecond, DocLatency: time.Millisecond})
	res, err := fd.Search(bg, expr, FormShort)
	if err != nil {
		t.Fatal(err)
	}
	s = fd.Stats()
	if s.DelayedOps != 1 {
		t.Errorf("delayed ops = %d, want 1", s.DelayedOps)
	}
	if s.DocDelays != len(res.Hits) || len(res.Hits) == 0 {
		t.Errorf("doc delays = %d, want %d (>0)", s.DocDelays, len(res.Hits))
	}
	wantDelay := time.Duration(1+len(res.Hits)) * time.Millisecond
	if s.DelayTotal != wantDelay {
		t.Errorf("delay total = %s, want %s", s.DelayTotal, wantDelay)
	}
	if s.Injected != 0 {
		t.Errorf("delays counted as injected faults: %+v", s)
	}
}
