package obs

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"
)

func mkTrace(id, outcome string, dur time.Duration) StoredTrace {
	return StoredTrace{
		ID: id, Outcome: outcome, DurationNs: dur.Nanoseconds(),
		Root: SpanSnapshot{Name: "query", DurationNs: dur.Nanoseconds()},
	}
}

// TestTraceStoreTailRetention: every non-ok trace is retained regardless
// of the sampling rate — the tail-based guarantee the ISSUE's acceptance
// criterion pins ("tail sampling provably retains 100% of error/slow
// traces").
func TestTraceStoreTailRetention(t *testing.T) {
	ts := NewTraceStore(1000, 1000, 50*time.Millisecond)
	outcomes := []string{OutcomeError, OutcomeOverload, OutcomeBudget, OutcomeTimeout, OutcomeCancel}
	var want []string
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("q-%d", i)
		if i%2 == 0 {
			// Fast, healthy — subject to 1-in-1000 sampling, so effectively
			// all dropped in this run.
			ts.Offer(mkTrace(id, OutcomeOK, time.Millisecond))
			continue
		}
		want = append(want, id)
		if i%4 == 1 {
			// Slow but "ok": must be reclassified and retained.
			ts.Offer(mkTrace(id, OutcomeOK, 80*time.Millisecond))
		} else {
			ts.Offer(mkTrace(id, outcomes[i%len(outcomes)], time.Millisecond))
		}
	}
	for _, id := range want {
		tr, ok := ts.Get(id)
		if !ok {
			t.Errorf("tail trace %s not retained", id)
			continue
		}
		if tr.Outcome == OutcomeOK {
			t.Errorf("trace %s retained with outcome ok, want reclassified/tail", id)
		}
	}
	s := ts.Stats()
	if s.Tail != uint64(len(want)) {
		t.Errorf("Tail = %d, want %d", s.Tail, len(want))
	}
	if s.Sampled != 0 {
		t.Errorf("Sampled = %d, want 0 at 1-in-1000 over 100 ok traces", s.Sampled)
	}
	if s.SampledOut != 100 {
		t.Errorf("SampledOut = %d, want 100", s.SampledOut)
	}
}

// TestTraceStoreSampling: the healthy-trace sampler is a deterministic
// 1-in-N counter, so exactly every Nth ok trace is retained.
func TestTraceStoreSampling(t *testing.T) {
	ts := NewTraceStore(100, 5, 0)
	var kept []string
	for i := 1; i <= 40; i++ {
		id := fmt.Sprintf("q-%d", i)
		if ts.Offer(mkTrace(id, OutcomeOK, time.Millisecond)) {
			kept = append(kept, id)
		}
	}
	if len(kept) != 8 {
		t.Fatalf("kept %d of 40 at 1-in-5, want 8: %v", len(kept), kept)
	}
	for i, id := range kept {
		if want := fmt.Sprintf("q-%d", (i+1)*5); id != want {
			t.Errorf("kept[%d] = %s, want %s (every 5th)", i, id, want)
		}
	}
	s := ts.Stats()
	if s.Sampled != 8 || s.SampledOut != 32 || s.Tail != 0 {
		t.Errorf("stats = %+v, want sampled=8 sampled_out=32 tail=0", s)
	}
}

// TestTraceStoreRing: the ring evicts oldest-first at capacity and Get
// stops serving evicted IDs.
func TestTraceStoreRing(t *testing.T) {
	ts := NewTraceStore(3, 1, 0)
	for i := 0; i < 5; i++ {
		ts.Offer(mkTrace(fmt.Sprintf("q-%d", i), OutcomeError, time.Millisecond))
	}
	for i := 0; i < 2; i++ {
		if _, ok := ts.Get(fmt.Sprintf("q-%d", i)); ok {
			t.Errorf("evicted trace q-%d still served", i)
		}
	}
	for i := 2; i < 5; i++ {
		if _, ok := ts.Get(fmt.Sprintf("q-%d", i)); !ok {
			t.Errorf("recent trace q-%d missing", i)
		}
	}
	list := ts.List(0)
	if len(list) != 3 {
		t.Fatalf("List returned %d entries, want 3", len(list))
	}
	for i, want := range []string{"q-4", "q-3", "q-2"} {
		if list[i].ID != want {
			t.Errorf("List[%d] = %s, want %s (newest first)", i, list[i].ID, want)
		}
	}
	if list[0].Seq <= list[1].Seq {
		t.Errorf("sequence numbers not monotone: %d then %d", list[0].Seq, list[1].Seq)
	}
	s := ts.Stats()
	if s.Retained != 3 || s.Evicted != 2 || s.Kept != 5 {
		t.Errorf("stats = %+v, want retained=3 evicted=2 kept=5", s)
	}
}

// TestTraceStoreReusedID: offering the same trace ID twice must leave the
// byID map consistent — the newer offer wins, and evicting the older slot
// later must not delete the newer mapping.
func TestTraceStoreReusedID(t *testing.T) {
	ts := NewTraceStore(3, 1, 0)
	ts.Offer(mkTrace("dup", OutcomeError, time.Millisecond))
	ts.Offer(mkTrace("dup", OutcomeError, 2*time.Millisecond))
	ts.Offer(mkTrace("q-a", OutcomeError, time.Millisecond))
	// Ring is full; next Offer overwrites slot 0 (the older "dup").
	ts.Offer(mkTrace("q-b", OutcomeError, time.Millisecond))
	tr, ok := ts.Get("dup")
	if !ok {
		t.Fatal("newer dup lost when older slot was evicted")
	}
	if tr.DurationNs != (2 * time.Millisecond).Nanoseconds() {
		t.Errorf("Get(dup) returned the older trace (dur=%d)", tr.DurationNs)
	}
}

// TestTraceStoreNil: a nil store is a no-op sink, so callers don't need
// to guard the disabled configuration.
func TestTraceStoreNil(t *testing.T) {
	var ts *TraceStore
	if ts.Offer(mkTrace("x", OutcomeError, 0)) {
		t.Error("nil store retained a trace")
	}
	if _, ok := ts.Get("x"); ok {
		t.Error("nil store served a trace")
	}
	if got := ts.List(10); got != nil {
		t.Errorf("nil store listed traces: %v", got)
	}
	if s := ts.Stats(); s != (TraceStoreStats{}) {
		t.Errorf("nil store stats = %+v", s)
	}
}

// TestTraceStoreList limit behavior.
func TestTraceStoreListLimit(t *testing.T) {
	ts := NewTraceStore(10, 1, 0)
	for i := 0; i < 6; i++ {
		ts.Offer(mkTrace(fmt.Sprintf("q-%d", i), OutcomeError, time.Millisecond))
	}
	if got := ts.List(2); len(got) != 2 || got[0].ID != "q-5" {
		t.Errorf("List(2) = %+v, want [q-5 q-4]", got)
	}
	if got := ts.List(100); len(got) != 6 {
		t.Errorf("List(100) returned %d, want all 6", len(got))
	}
}

// TestAttachRemote: a grafted subtree is tagged with the backend label,
// anchored at offset zero, preserves deeper grafts' labels, and renders
// with the remote= marker. SetAttr-after-End and attach-after-End must
// both be safe (a hedged loser's reply can land while the span closes).
func TestAttachRemote(t *testing.T) {
	rec := NewRecorder("query")
	root := rec.Root()

	remote := SpanSnapshot{
		Name: "textserve.search", StartNs: 12345, DurationNs: 1e6,
		Children: []SpanSnapshot{
			{Name: "local.search", DurationNs: 8e5},
			{Name: "far.probe", DurationNs: 1e5, Remote: "10.0.0.9:7777"},
		},
	}
	root.End()
	root.AttachRemote(remote, "127.0.0.1:7070") // after End: must not panic or drop
	root.SetAttr(Str("late", "yes"))

	snap := root.Snapshot()
	if len(snap.Children) != 1 {
		t.Fatalf("root has %d children, want the grafted subtree", len(snap.Children))
	}
	g := snap.Children[0]
	if g.Remote != "127.0.0.1:7070" || g.Children[0].Remote != "127.0.0.1:7070" {
		t.Errorf("graft not labeled: root=%q child=%q", g.Remote, g.Children[0].Remote)
	}
	if g.Children[1].Remote != "10.0.0.9:7777" {
		t.Errorf("nested graft label overwritten: %q", g.Children[1].Remote)
	}
	if g.StartNs != 0 {
		t.Errorf("graft anchored at %d, want 0 (remote clocks must not enter the trace)", g.StartNs)
	}

	var b strings.Builder
	Dump(&b, root)
	out := b.String()
	for _, want := range []string{"remote=127.0.0.1:7070", "remote=10.0.0.9:7777", "late=yes"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}

	var nilSpan *Span
	nilSpan.AttachRemote(remote, "x") // nil-safe
}

// TestSnapshotOffsets: children carry start offsets relative to their
// parent, never absolute times.
func TestSnapshotOffsets(t *testing.T) {
	rec := NewRecorder("r")
	root := rec.Root()
	time.Sleep(2 * time.Millisecond)
	c := rec.Root()
	_ = c
	child := rootChild(rec, "work")
	child.End()
	root.End()
	snap := root.Snapshot()
	if snap.StartNs != 0 {
		t.Errorf("root StartNs = %d, want 0", snap.StartNs)
	}
	if len(snap.Children) != 1 {
		t.Fatalf("want one child")
	}
	off := snap.Children[0].StartNs
	if off < (1 * time.Millisecond).Nanoseconds() {
		t.Errorf("child offset %dns, want >= 1ms (started after the sleep)", off)
	}
	if off > time.Minute.Nanoseconds() {
		t.Errorf("child offset %dns looks absolute, want parent-relative", off)
	}
}

// rootChild starts a child span under the recorder's root via the
// context path, the way production code attaches spans.
func rootChild(rec *Recorder, name string) *Span {
	ctx := WithRecorder(context.Background(), rec)
	_, sp := StartSpan(ctx, name)
	return sp
}

// TestDumpLimited: the span budget truncates depth-first and reports the
// suppressed count.
func TestDumpLimited(t *testing.T) {
	rec := NewRecorder("root")
	ctx := WithRecorder(context.Background(), rec)
	for i := 0; i < 10; i++ {
		sctx, sp := StartSpan(ctx, fmt.Sprintf("leg-%d", i))
		_, inner := StartSpan(sctx, "inner")
		inner.End()
		sp.End()
	}
	rec.Root().End()
	snap := rec.Root().Snapshot()
	if got := SpanCount(snap); got != 21 {
		t.Fatalf("SpanCount = %d, want 21", got)
	}

	var b strings.Builder
	suppressed := DumpLimited(&b, snap, 5)
	if suppressed != 16 {
		t.Errorf("suppressed = %d, want 16", suppressed)
	}
	out := b.String()
	if got := strings.Count(out, "\n"); got != 6 { // 5 spans + truncation line
		t.Errorf("dump has %d lines, want 6:\n%s", got, out)
	}
	if !strings.Contains(out, "(16 spans truncated)") {
		t.Errorf("dump missing truncation marker:\n%s", out)
	}

	// A budget covering the whole tree suppresses nothing.
	b.Reset()
	if got := DumpLimited(&b, snap, 100); got != 0 {
		t.Errorf("suppressed = %d with a large budget, want 0", got)
	}
}
