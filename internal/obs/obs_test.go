package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestDisabledNoop(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "anything")
	if sp != nil {
		t.Fatalf("StartSpan on bare context returned a live span")
	}
	if ctx2 != ctx {
		t.Fatalf("StartSpan on bare context rebuilt the context")
	}
	// Every method must be nil-safe.
	sp.SetAttr(Str("k", "v"))
	sp.End()
	if sp.Duration() != 0 || sp.Name() != "" {
		t.Fatalf("nil span leaked state")
	}
	if IDFrom(ctx) != "" || SpanFrom(ctx) != nil || RecorderFrom(ctx) != nil {
		t.Fatalf("bare context reported a trace")
	}
	var b strings.Builder
	Dump(&b, nil)
	if b.Len() != 0 {
		t.Fatalf("Dump(nil) wrote output: %q", b.String())
	}
}

func TestSpanTree(t *testing.T) {
	rec := NewRecorder("query")
	if rec.ID == "" {
		t.Fatalf("recorder has no ID")
	}
	ctx := WithRecorder(context.Background(), rec)
	if IDFrom(ctx) != rec.ID {
		t.Fatalf("IDFrom = %q, want %q", IDFrom(ctx), rec.ID)
	}

	ctx1, sp1 := StartSpan(ctx, "optimize")
	sp1.SetAttr(F64("est_cost", 12.5))
	sp1.End()
	ctx2, sp2 := StartSpan(ctx, "exec")
	_, sp3 := StartSpan(ctx2, "join.TS")
	sp3.SetAttr(Int("rows", 7), Str("method", "TS"))
	sp3.End()
	sp2.End()
	rec.Root().End()
	_ = ctx1

	snap := rec.Root().Snapshot()
	if snap.Name != "query" || len(snap.Children) != 2 {
		t.Fatalf("unexpected root snapshot: %+v", snap)
	}
	if snap.Children[0].Name != "optimize" || snap.Children[1].Name != "exec" {
		t.Fatalf("children out of order: %+v", snap.Children)
	}
	join := snap.Children[1].Children[0]
	if join.Name != "join.TS" || len(join.Attrs) != 2 {
		t.Fatalf("unexpected join span: %+v", join)
	}
	if join.Attrs[0].Key != "rows" || join.Attrs[0].Value != "7" {
		t.Fatalf("numeric attr rendered as %+v", join.Attrs[0])
	}
	if join.Attrs[1].Value != "TS" {
		t.Fatalf("string attr rendered as %+v", join.Attrs[1])
	}

	var b strings.Builder
	Dump(&b, rec.Root())
	out := b.String()
	for _, want := range []string{"query", "  optimize", "  exec", "    join.TS", "rows=7", "method=TS"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}

	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot not JSON-encodable: %v", err)
	}
}

func TestRecorderIDsUnique(t *testing.T) {
	a, b := NewRecorder("a"), NewRecorder("b")
	if a.ID == b.ID {
		t.Fatalf("two recorders share ID %q", a.ID)
	}
}

func TestDurations(t *testing.T) {
	rec := NewRecorder("r")
	ctx := WithRecorder(context.Background(), rec)
	_, sp := StartSpan(ctx, "work")
	time.Sleep(2 * time.Millisecond)
	if sp.Duration() <= 0 {
		t.Fatalf("open span reports no elapsed time")
	}
	sp.End()
	d := sp.Duration()
	if d < 2*time.Millisecond {
		t.Fatalf("ended span duration %v < sleep", d)
	}
	time.Sleep(time.Millisecond)
	sp.End() // second End must not restamp
	if got := sp.Duration(); got != d {
		t.Fatalf("duration changed after second End: %v != %v", got, d)
	}
}

// TestConcurrentRecorder exercises 8 goroutines sharing one recorder —
// appending spans, attrs, and snapshotting concurrently — and is part of
// the -race gate in scripts/check.sh.
func TestConcurrentRecorder(t *testing.T) {
	rec := NewRecorder("root")
	ctx := WithRecorder(context.Background(), rec)
	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sctx, sp := StartSpan(ctx, fmt.Sprintf("leg-%d", w))
				sp.SetAttr(Int("i", i))
				_, inner := StartSpan(sctx, "inner")
				inner.SetAttr(Str("w", fmt.Sprint(w)))
				inner.End()
				sp.End()
				if w == 0 && i%10 == 0 {
					_ = rec.Root().Snapshot() // snapshot while others write
				}
			}
		}(w)
	}
	wg.Wait()
	rec.Root().End()
	snap := rec.Root().Snapshot()
	if len(snap.Children) != workers*perWorker {
		t.Fatalf("root has %d children, want %d", len(snap.Children), workers*perWorker)
	}
	for _, c := range snap.Children {
		if len(c.Children) != 1 || c.Children[0].Name != "inner" {
			t.Fatalf("leg missing inner child: %+v", c)
		}
	}
}

// TestDisabledSpanPathBudget is the allocation-regression gate on the
// disabled span path: with no recorder on the context, an instrumented
// operation (StartSpan + End) must stay allocation-free — tracing off may
// not tax the hot path. The ns/op side is BenchmarkStartSpanDisabled,
// which is timing and so not asserted in a unit test.
func TestDisabledSpanPathBudget(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		_, sp := StartSpan(ctx, "op")
		if sp != nil {
			sp.SetAttr(Int("i", 1))
		}
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %.1f per op, want 0", allocs)
	}
}

// BenchmarkStartSpanDisabled measures the disabled path: no recorder in
// the context, so StartSpan must cost one context lookup and allocate
// nothing. This is the number behind the "zero overhead when disabled"
// acceptance criterion.
func BenchmarkStartSpanDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, "op")
		if sp != nil {
			sp.SetAttr(Int("i", i)) // never taken
		}
		sp.End()
	}
}

// BenchmarkStartSpanEnabled measures the live path for comparison.
func BenchmarkStartSpanEnabled(b *testing.B) {
	rec := NewRecorder("bench")
	ctx := WithRecorder(context.Background(), rec)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, "op")
		if sp != nil {
			sp.SetAttr(Int("i", i))
		}
		sp.End()
	}
}
