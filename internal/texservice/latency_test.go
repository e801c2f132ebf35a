package texservice

import (
	"testing"
	"time"

	"textjoin/internal/textidx"
)

// TestServerLatency: with simulated WAN latency (a Faulty backend's
// per-operation delay) each request pays the round trip, so n searches
// take ≥ n×latency while a batched invocation pays it once — the physical
// counterpart of the paper's c_i argument.
func TestServerLatency(t *testing.T) {
	const latency = 15 * time.Millisecond
	local, err := NewLocal(testIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(NewFaulty(local, FaultConfig{Latency: latency}))
	srv.Logf = t.Logf
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	remote, err := Dial(addr, nil) // metadata passes Faulty undelayed
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	queries := []textidx.Expr{
		textidx.Term{Field: "title", Word: "text"},
		textidx.Term{Field: "title", Word: "belief"},
		textidx.Term{Field: "author", Word: "kao"},
	}

	start := time.Now()
	for _, q := range queries {
		if _, err := remote.Search(bg, q, FormShort); err != nil {
			t.Fatal(err)
		}
	}
	sequential := time.Since(start)
	if sequential < 3*latency {
		t.Fatalf("3 sequential searches took %s, expected ≥ %s", sequential, 3*latency)
	}

	start = time.Now()
	if _, err := remote.BatchSearch(bg, queries, FormShort); err != nil {
		t.Fatal(err)
	}
	batched := time.Since(start)
	if batched >= sequential {
		t.Fatalf("batched invocation (%s) not faster than sequential (%s)", batched, sequential)
	}
}
