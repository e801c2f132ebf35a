package shard

import (
	"testing"
	"time"

	"textjoin/internal/obs"
	"textjoin/internal/texservice"
)

// collectSpans appends every span in the tree with the given name.
func collectSpans(s obs.SpanSnapshot, name string, out *[]obs.SpanSnapshot) {
	if s.Name == name {
		*out = append(*out, s)
	}
	for _, c := range s.Children {
		collectSpans(c, name, out)
	}
}

// hasRemoteSpan reports whether the subtree contains a span grafted from
// another process (Remote label set).
func hasRemoteSpan(s obs.SpanSnapshot) bool {
	if s.Remote != "" {
		return true
	}
	for _, c := range s.Children {
		if hasRemoteSpan(c) {
			return true
		}
	}
	return false
}

// TestTracePropagationUnderFaults is the check.sh trace-propagation
// smoke: a federation of TCP-served shards, each client link failing 30%
// of its calls transiently, still produces a trace with backend-grafted
// remote spans under every scatter leg — each leg's Retrying wrapper
// keeps re-asking until a reply (with its server subtree) lands. Runs under
// -race in the gate.
func TestTracePropagationUnderFaults(t *testing.T) {
	ix := fixture(t)
	const n = 3
	parts, err := ix.Partition(n)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]texservice.Service, n)
	for k, part := range parts {
		local, err := texservice.NewLocal(part,
			texservice.WithShortFields("title", "author", "year"))
		if err != nil {
			t.Fatal(err)
		}
		srv := texservice.NewServer(local)
		srv.Logf = t.Logf
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		remote, err := texservice.Dial(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer remote.Close()
		// 30% of calls fail before reaching the wire; each leg's own
		// Retrying wrapper must absorb them.
		shards[k] = texservice.NewRetrying(
			texservice.NewFaulty(remote, texservice.FaultConfig{
				ErrorRate: 0.3, Seed: int64(k + 1),
			}),
			texservice.RetryPolicy{
				MaxAttempts: 50, BaseDelay: time.Microsecond, MaxDelay: time.Millisecond,
				Seed: texservice.DeriveSeed(0, k),
			})
	}
	sharded, err := New(shards)
	if err != nil {
		t.Fatal(err)
	}

	rec := obs.NewRecorder("query")
	ctx := obs.WithRecorder(bg, rec)
	const searches = 5
	for i := 0; i < searches; i++ {
		for _, q := range queries() {
			if _, err := sharded.Search(ctx, q, texservice.FormShort); err != nil {
				t.Fatalf("search %d under faults: %v", i, err)
			}
		}
	}
	rec.Root().End()
	snap := rec.Root().Snapshot()

	var legs []obs.SpanSnapshot
	collectSpans(snap, "shard.leg", &legs)
	wantLegs := searches * len(queries()) * n
	if len(legs) != wantLegs {
		t.Fatalf("trace has %d scatter-leg spans, want %d", len(legs), wantLegs)
	}
	for i, leg := range legs {
		if !hasRemoteSpan(leg) {
			t.Errorf("scatter leg %d has no backend-grafted remote span: %+v", i, leg)
		}
	}

	// Every one of the three backends appears somewhere in the trace.
	seen := map[string]bool{}
	var mark func(s obs.SpanSnapshot)
	mark = func(s obs.SpanSnapshot) {
		if s.Remote != "" {
			seen[s.Remote] = true
		}
		for _, c := range s.Children {
			mark(c)
		}
	}
	mark(snap)
	if len(seen) != n {
		t.Errorf("trace names %d distinct backends, want %d: %v", len(seen), n, seen)
	}
}
