package appcfg

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"textjoin/internal/core"
	"textjoin/internal/gateway"
	"textjoin/internal/obs"
	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
	"textjoin/internal/workload"
)

var bg = context.Background()

// TestRetryPoliciesDecorrelated: every endpoint DialText wraps gets the
// -retries budget and its own jitter seed, DeriveSeed(base, i) for the
// i-th endpoint of -remote, so the shards of one scatter that fail
// together do not back off in lockstep; the same config always derives
// the same seeds. -retries 1 (the default) wraps nothing.
func TestRetryPoliciesDecorrelated(t *testing.T) {
	c := Defaults()
	c.Retries = 4
	base := texservice.DefaultRetryPolicy().Seed
	seen := map[int64]int{}
	for i := 0; i < 8; i++ {
		p, ok := c.retryPolicy(i)
		if !ok || p.MaxAttempts != 4 {
			t.Fatalf("endpoint %d: policy %+v (retrying %v), want 4 attempts", i, p, ok)
		}
		if want := texservice.DeriveSeed(base, i); p.Seed != want {
			t.Errorf("endpoint %d: seed %d, want DeriveSeed(%d, %d) = %d", i, p.Seed, base, i, want)
		}
		if j, dup := seen[p.Seed]; dup {
			t.Errorf("endpoints %d and %d share jitter seed %d", j, i, p.Seed)
		}
		seen[p.Seed] = i
		if again, _ := c.retryPolicy(i); again != p {
			t.Errorf("endpoint %d: policy %+v, then %+v", i, p, again)
		}
	}
	def := Defaults()
	if _, ok := def.retryPolicy(0); ok {
		t.Error("default -retries 1 wraps endpoints in a retry loop")
	}
}

// serve starts an in-process text server over svc and returns its address.
func serve(t *testing.T, svc texservice.Service) (*texservice.Server, string) {
	t.Helper()
	srv := texservice.NewServer(svc)
	srv.Logf = func(string, ...interface{}) {}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

// retried reports whether the span tree holds a Retrying span that took
// more than one attempt.
func retried(s obs.SpanSnapshot) bool {
	if strings.HasPrefix(s.Name, "retry.") {
		for _, a := range s.Attrs {
			if a.Key == "attempts" && a.Value != "1" {
				return true
			}
		}
	}
	for _, c := range s.Children {
		if retried(c) {
			return true
		}
	}
	return false
}

// sortedRows renders a result's rows as a sorted list, so answers from
// different plans compare as multisets.
func sortedRows(rows [][]string) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		out[i] = strings.Join(row, "\x1f")
	}
	slices.Sort(out)
	return out
}

// TestDialTextComposes drives the one composition the binaries ship:
// "-remote a,b|c -retries 3 -besteffort" over three TCP text servers —
// partition 0 served by a alone, partition 1 by replicas b and c, each
// endpoint behind its own Retrying wrapper. Server a drops every third
// connection and hangs every twentieth call. The pool's free redial absorbs
// a lone drop or hang on a reused connection, but a drop next to a hang
// fails twice in a row, and only the Retrying wrapper can absorb that:
// every answer must equal the in-process one, and the trace must show a
// retry. Then a is closed: partition 0 is lost, and the gateway's
// best-effort answer must come back flagged Partial.
func TestDialTextComposes(t *testing.T) {
	if testing.Short() {
		t.Skip("starts three TCP servers and waits out injected hangs")
	}
	const docs, seed = 600, 3
	demo := workload.NewDemo(docs, seed)
	parts, err := demo.Corpus.Index.Partition(2)
	if err != nil {
		t.Fatal(err)
	}
	local := func(ix *textidx.Index) *texservice.Local {
		svc, err := texservice.NewLocal(ix, texservice.WithShortFields("title", "author", "year"))
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	faulty := texservice.NewFaulty(local(parts[0]), texservice.FaultConfig{DropEvery: 3, HangEvery: 20})
	srvA, a := serve(t, faulty)
	_, b := serve(t, local(parts[1]))
	_, c := serve(t, local(parts[1]))

	inProc := Defaults()
	inProc.Docs, inProc.Seed = docs, seed
	want, cleanupWant, err := inProc.BuildEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanupWant()

	cfg := inProc
	cfg.Remote = a + "," + b + "|" + c
	cfg.Retries = 3
	cfg.Timeout = 150 * time.Millisecond
	cfg.BestEffort = true
	eng, cleanup, err := cfg.BuildEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	if cfg.Fleet == nil || len(cfg.Fleet.Sets()) != 2 {
		t.Fatalf("-remote %q did not build a two-partition fleet", cfg.Remote)
	}

	queries := []string{
		`select student.name, mercury.docid from student, mercury
		 where student.year > 2 and student.name in mercury.author`,
		`select docid from project, mercury
		 where project.pname in mercury.title and project.member in mercury.author`,
	}
	rows := func(res *core.Result) [][]string {
		out := make([][]string, len(res.Table.Rows))
		for i, row := range res.Table.Rows {
			for _, v := range row {
				out[i] = append(out[i], v.Text())
			}
		}
		return out
	}
	rec := obs.NewRecorder("test")
	ctx := obs.WithRecorder(bg, rec)
	for _, q := range queries {
		ref, err := want.QueryContext(bg, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.QueryContext(ctx, q)
		if err != nil {
			t.Fatalf("query over the faulty composition failed: %v", err)
		}
		if got.Partial {
			t.Errorf("answer flagged partial although every partition answered")
		}
		if !slices.Equal(sortedRows(rows(got)), sortedRows(rows(ref))) {
			t.Errorf("%d rows over TCP, want the in-process %d", len(got.Table.Rows), len(ref.Table.Rows))
		}
		if len(ref.Table.Rows) == 0 {
			t.Fatal("query has no rows; the comparison is vacuous")
		}
	}
	rec.Root().End()
	if st := faulty.Stats(); st.Drops == 0 || st.Hangs == 0 {
		t.Fatalf("faults injected: %+v; want drops and hangs", st)
	}
	if !retried(rec.Root().Snapshot()) {
		t.Error("no Retrying span took more than one attempt")
	}

	// Lose partition 0 for good: a best-effort answer, and it says so.
	srvA.Close()
	gw := gateway.New(eng, gateway.Config{Workers: 1})
	resp, err := gw.Query(bg, queries[0])
	if err != nil {
		t.Fatalf("best-effort query without partition 0 failed: %v", err)
	}
	if !resp.Partial {
		t.Error("answer that lost partition 0 not flagged partial")
	}
}
