package join

import (
	"context"
	"testing"

	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
)

func TestTSBatchEquivalentAndAmortised(t *testing.T) {
	ix := corpus(t)
	spec := q3Spec(t, true)
	want, err := NaiveJoin(spec, ix)
	if err != nil {
		t.Fatal(err)
	}
	// Allow 2 bindings per batch: M = 2 conjunct terms × 2 = 4.
	svc, err := texservice.NewLocal(ix,
		texservice.WithShortFields("title", "author", "year"),
		texservice.WithMaxTerms(4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := TS{Batched: true}.Execute(bg, spec, svc)
	if err != nil {
		t.Fatal(err)
	}
	if !SameRows(res.Table, want) {
		t.Fatal("TS(batched) differs from naive")
	}
	// 8 bindings, 2 per batch → 4 invocations instead of TS's 8.
	if res.Stats.Usage.Searches != 4 {
		t.Fatalf("batched TS used %d invocations, want 4", res.Stats.Usage.Searches)
	}

	svcTS := service(t, ix)
	resTS, err := TS{}.Execute(bg, spec, svcTS)
	if err != nil {
		t.Fatal(err)
	}
	if resTS.Stats.Usage.Searches != 8 {
		t.Fatalf("plain TS used %d invocations", resTS.Stats.Usage.Searches)
	}
	// Same transmissions, fewer invocations → cheaper.
	if res.Stats.Usage.Cost >= resTS.Stats.Usage.Cost {
		t.Fatalf("batched TS (%v) not cheaper than TS (%v)",
			res.Stats.Usage.Cost, resTS.Stats.Usage.Cost)
	}
}

// noBatch refuses batched invocation, as a service without it does.
type noBatch struct{ texservice.Service }

func (noBatch) BatchSearch(context.Context, []textidx.Expr, texservice.Form) ([]*texservice.Result, error) {
	return nil, texservice.ErrNoBatch
}

// TestTSBatchOverDecoratorWithoutBatching: batched TS is applicable over
// a service that refuses batched invocation, bare or behind a cache that
// passes the refusal on; the refusal degrades to one search per binding
// and the answer is still the naive join's.
func TestTSBatchOverDecoratorWithoutBatching(t *testing.T) {
	ix := corpus(t)
	spec := q3Spec(t, false)
	want, err := NaiveJoin(spec, ix)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		svc  texservice.Service
	}{
		{"bare", noBatch{service(t, ix)}},
		{"decorated", texservice.NewCached(noBatch{service(t, ix)}, 64)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := (TS{Batched: true}).Applicable(spec, tc.svc); err != nil {
				t.Fatalf("TS(batched) not applicable: %v", err)
			}
			res, err := TS{Batched: true}.Execute(bg, spec, tc.svc)
			if err != nil {
				t.Fatal(err)
			}
			if !SameRows(res.Table, want) {
				t.Fatal("TS(batched) over a service without batching differs from naive")
			}
			// 8 distinct bindings, each its own search.
			if res.Stats.Usage.Searches != 8 {
				t.Fatalf("degraded TS(batched) used %d searches, want 8", res.Stats.Usage.Searches)
			}
		})
	}
}

// TestTSBatchRejectsOversizedConjunct: TS has one applicability rule,
// batched or not. A spec whose substituted query exceeds the term limit
// is inapplicable, and Execute rejects it before sending any search.
func TestTSBatchRejectsOversizedConjunct(t *testing.T) {
	ix := corpus(t)
	spec := q3Spec(t, false) // 2 terms per conjunct
	for _, m := range []TS{{}, {Batched: true}} {
		svc, err := texservice.NewLocal(ix, texservice.WithMaxTerms(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Applicable(spec, svc); err == nil {
			t.Fatalf("%s: oversized conjunct accepted", m.Name())
		}
		if _, err := m.Execute(bg, spec, svc); err == nil {
			t.Fatalf("%s: oversized conjunct executed", m.Name())
		}
		if n := svc.Meter().Snapshot().Searches; n != 0 {
			t.Fatalf("%s: sent %d searches for an inapplicable spec", m.Name(), n)
		}
	}
}

func TestExtensionsAgainstRemote(t *testing.T) {
	ix := corpus(t)
	local, err := texservice.NewLocal(ix, texservice.WithShortFields("title", "author", "year"))
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

	spec := q3Spec(t, false)
	want, err := NaiveJoin(spec, ix)
	if err != nil {
		t.Fatal(err)
	}
	// Plain and batched TS over the wire.
	for _, m := range []Method{TS{}, TS{Batched: true}} {
		res, err := m.Execute(bg, spec, remote)
		if err != nil {
			t.Fatal(err)
		}
		if !SameRows(res.Table, want) {
			t.Fatalf("remote %s differs from naive", m.Name())
		}
	}
	// Exported statistics over the wire.
	df, err := remote.TermDocFrequency(bg, "title", "pws")
	if err != nil {
		t.Fatal(err)
	}
	if df != ix.DocFrequency("title", "pws") {
		t.Fatalf("remote doc frequency %d, local %d", df, ix.DocFrequency("title", "pws"))
	}
	// Phrase frequency too.
	df, err = remote.TermDocFrequency(bg, "title", "belief update")
	if err != nil || df != 1 {
		t.Fatalf("phrase doc frequency = %d, %v", df, err)
	}
}

func TestBatchSearchTermLimit(t *testing.T) {
	ix := corpus(t)
	svc, err := texservice.NewLocal(ix, texservice.WithMaxTerms(2))
	if err != nil {
		t.Fatal(err)
	}
	exprs := []textidx.Expr{
		textidx.Term{Field: "title", Word: "pws"},
		textidx.Term{Field: "title", Word: "text"},
		textidx.Term{Field: "title", Word: "belief"},
	}
	if _, err := svc.BatchSearch(bg, exprs, texservice.FormShort); err == nil {
		t.Fatal("over-limit batch accepted")
	}
	ok, err := svc.BatchSearch(bg, exprs[:2], texservice.FormShort)
	if err != nil {
		t.Fatal(err)
	}
	if len(ok) != 2 {
		t.Fatalf("batch returned %d results", len(ok))
	}
	// One invocation charged.
	if u := svc.Meter().Snapshot(); u.Searches != 1 {
		t.Fatalf("batch charged %d invocations", u.Searches)
	}
}

func TestTSBatchName(t *testing.T) {
	if (TS{Batched: true}).Name() != "TS(batched)" {
		t.Fatal("batched TS name wrong")
	}
}
