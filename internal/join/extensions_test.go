package join

import (
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
	res, err := TSBatch{}.Execute(bg, spec, svc)
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

func TestTSBatchRequiresCapability(t *testing.T) {
	ix := corpus(t)
	svc := service(t, ix)
	spec := q3Spec(t, false)
	// Wrap the service to hide the capability.
	if err := (TSBatch{}).Applicable(spec, noBatch{svc}); err == nil {
		t.Fatal("TS(batched) applicable without BatchSearcher")
	}
	if _, err := (TSBatch{}).Execute(bg, spec, noBatch{svc}); err == nil {
		t.Fatal("TS(batched) executed without BatchSearcher")
	}
}

// noBatch hides the batch capability of a service.
type noBatch struct{ texservice.Service }

// TestTSBatchOverDecoratorWithoutBatching: a decorator offers BatchSearch
// by construction, so TSBatch is applicable over a cache whose backend
// cannot batch; the refusal from below degrades to one search per
// binding and the answer is still the naive join's.
func TestTSBatchOverDecoratorWithoutBatching(t *testing.T) {
	ix := corpus(t)
	spec := q3Spec(t, false)
	want, err := NaiveJoin(spec, ix)
	if err != nil {
		t.Fatal(err)
	}
	svc := texservice.NewCached(noBatch{service(t, ix)}, 64)
	if err := (TSBatch{}).Applicable(spec, svc); err != nil {
		t.Fatalf("TS(batched) not applicable over a decorator: %v", err)
	}
	res, err := TSBatch{}.Execute(bg, spec, svc)
	if err != nil {
		t.Fatal(err)
	}
	if !SameRows(res.Table, want) {
		t.Fatal("TS(batched) over a decorator without batching differs from naive")
	}
	// 8 distinct bindings, each its own search.
	if res.Stats.Usage.Searches != 8 {
		t.Fatalf("degraded TS(batched) used %d searches, want 8", res.Stats.Usage.Searches)
	}
}

func TestTSBatchRejectsOversizedConjunct(t *testing.T) {
	ix := corpus(t)
	svc, err := texservice.NewLocal(ix, texservice.WithMaxTerms(1))
	if err != nil {
		t.Fatal(err)
	}
	spec := q3Spec(t, false) // 2 terms per conjunct
	if err := (TSBatch{}).Applicable(spec, svc); err == nil {
		t.Fatal("oversized conjunct accepted")
	}
}

func TestSJOrColumnsEquivalent(t *testing.T) {
	ix := corpus(t)
	for _, longForm := range []bool{false, true} {
		spec := q3Spec(t, longForm)
		want, err := NaiveJoin(spec, ix)
		if err != nil {
			t.Fatal(err)
		}
		for _, orCols := range [][]string{{"name"}, {"member"}, {"name", "member"}} {
			svc := service(t, ix)
			m := SJRTP{OrColumns: orCols}
			res, err := m.Execute(bg, spec, svc)
			if err != nil {
				t.Fatalf("%s: %v", m.Name(), err)
			}
			if !SameRows(res.Table, want) {
				t.Fatalf("%s differs from naive (longForm=%v)", m.Name(), longForm)
			}
		}
	}
}

func TestSJOrColumnsShipsMore(t *testing.T) {
	ix := corpus(t)
	spec := q3Spec(t, false)
	svcFull := service(t, ix)
	full, err := SJRTP{}.Execute(bg, spec, svcFull)
	if err != nil {
		t.Fatal(err)
	}
	svcOne := service(t, ix)
	one, err := SJRTP{OrColumns: []string{"member"}}.Execute(bg, spec, svcOne)
	if err != nil {
		t.Fatal(err)
	}
	// The single-column variant ships every document by any member; the
	// full-conjunct variant ships only documents matching a whole tuple.
	if one.Stats.Usage.ShortDocs <= full.Stats.Usage.ShortDocs {
		t.Fatalf("single-column SJ shipped %d docs, full-conjunct %d",
			one.Stats.Usage.ShortDocs, full.Stats.Usage.ShortDocs)
	}
	// Fewer distinct bindings on one column → no more batches.
	if one.Stats.Usage.Searches > full.Stats.Usage.Searches {
		t.Fatalf("single-column SJ used more searches (%d) than full (%d)",
			one.Stats.Usage.Searches, full.Stats.Usage.Searches)
	}
}

func TestSJOrColumnsValidation(t *testing.T) {
	ix := corpus(t)
	svc := service(t, ix)
	spec := q3Spec(t, false)
	if err := (SJRTP{OrColumns: []string{"zzz"}}).Applicable(spec, svc); err == nil {
		t.Fatal("bad OR column accepted")
	}
	if got := (SJRTP{OrColumns: []string{"name"}}).Name(); got != "SJ(name)+RTP" {
		t.Fatalf("name = %q", got)
	}
}

func TestPRTPAdaptiveEquivalent(t *testing.T) {
	ix := corpus(t)
	spec := q3Spec(t, true)
	want, err := NaiveJoin(spec, ix)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{0, 1, 2, 1000} {
		svc := service(t, ix)
		m := PRTPAdaptive{ProbeColumns: []string{"name"}, DocBudget: budget}
		res, err := m.Execute(bg, spec, svc)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if !SameRows(res.Table, want) {
			t.Fatalf("budget %d: result differs from naive", budget)
		}
	}
}

func TestPRTPAdaptiveSwitches(t *testing.T) {
	ix := corpus(t)
	spec := q3Spec(t, false)

	// Without a budget: one probe per distinct probe binding (4).
	svcPlain := service(t, ix)
	plain, err := PRTPAdaptive{ProbeColumns: []string{"name"}}.Execute(bg, spec, svcPlain)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats.Probes != 4 {
		t.Fatalf("plain adaptive sent %d probes", plain.Stats.Probes)
	}

	// With budget 1 the first successful probe (2 docs) exceeds it and
	// the rest degrade to substitution: fewer probes, more searches.
	svcTight := service(t, ix)
	tight, err := PRTPAdaptive{ProbeColumns: []string{"name"}, DocBudget: 1}.Execute(bg, spec, svcTight)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Stats.Probes >= plain.Stats.Probes {
		t.Fatalf("tight budget did not reduce probes: %d vs %d",
			tight.Stats.Probes, plain.Stats.Probes)
	}
	if tight.Stats.Usage.Searches <= tight.Stats.Probes {
		t.Fatal("tight budget sent no substituted searches after switching")
	}
	if !SameRows(tight.Table, plain.Table) {
		t.Fatal("adaptive switch changed the result")
	}
}

func TestPRTPAdaptiveName(t *testing.T) {
	if (PRTPAdaptive{}).Name() != "P+RTP(adaptive)" {
		t.Fatal("name wrong")
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
	for _, m := range []Method{TS{}, TSBatch{}} {
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
	if (TSBatch{}).Name() != "TS(batched)" {
		t.Fatal("TSBatch name wrong")
	}
}
