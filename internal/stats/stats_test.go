package stats

import (
	"math"
	"slices"
	"testing"

	"textjoin/internal/cost"
	"textjoin/internal/join"
	"textjoin/internal/relation"
	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
	"textjoin/internal/value"
)

func fixture(t *testing.T) (*texservice.Local, *relation.Table) {
	t.Helper()
	ix := textidx.NewIndex()
	docs := []textidx.Document{
		{ExtID: "d0", Fields: map[string]string{"title": "belief update", "author": "garcia"}},
		{ExtID: "d1", Fields: map[string]string{"title": "text retrieval", "author": "garcia kao"}},
		{ExtID: "d2", Fields: map[string]string{"title": "text filtering", "author": "ullman"}},
		{ExtID: "d3", Fields: map[string]string{"title": "text systems", "author": "kao"}},
	}
	for _, d := range docs {
		ix.MustAdd(d)
	}
	ix.Freeze()
	svc, err := texservice.NewLocal(ix, texservice.WithShortFields("title", "author"))
	if err != nil {
		t.Fatal(err)
	}

	schema := relation.MustSchema(
		relation.Column{Name: "name", Kind: value.KindString},
		relation.Column{Name: "topic", Kind: value.KindString},
	)
	tbl := relation.NewTable("student", schema)
	rows := [][2]string{
		{"garcia", "text"},
		{"kao", "belief update"},
		{"nobody", "text"},
		{"ullman", "zzz"},
	}
	for _, r := range rows {
		tbl.MustInsert(relation.Tuple{value.String(r[0]), value.String(r[1])})
	}
	return svc, tbl
}

func TestPredicateExactWhenFullySampled(t *testing.T) {
	svc, tbl := fixture(t)
	est := New(svc, WithSampleSize(100))
	// name in author: garcia→2, kao→2, nobody→0, ullman→1.
	e, err := est.Predicate(tbl, "name", "author")
	if err != nil {
		t.Fatal(err)
	}
	if e.Samples != 4 {
		t.Fatalf("samples = %d, want 4", e.Samples)
	}
	if math.Abs(e.Sel-0.75) > 1e-12 {
		t.Fatalf("sel = %v, want 0.75", e.Sel)
	}
	if math.Abs(e.Fanout-5.0/4.0) > 1e-12 {
		t.Fatalf("fanout = %v, want 1.25", e.Fanout)
	}
	if math.Abs(e.CondFanout-5.0/3.0) > 1e-12 {
		t.Fatalf("cond fanout = %v, want 5/3", e.CondFanout)
	}
	if e.Terms != 1 {
		t.Fatalf("terms = %d, want 1", e.Terms)
	}
	// Sel × CondFanout = Fanout.
	if math.Abs(e.Sel*e.CondFanout-e.Fanout) > 1e-12 {
		t.Fatal("Sel*CondFanout != Fanout")
	}
}

func TestPredicatePhraseTerms(t *testing.T) {
	svc, tbl := fixture(t)
	est := New(svc, WithSampleSize(100))
	// topic in title: "text"→3, "belief update"→1 (phrase, 2 terms), "zzz"→0.
	e, err := est.Predicate(tbl, "topic", "title")
	if err != nil {
		t.Fatal(err)
	}
	if e.Samples != 3 {
		t.Fatalf("samples = %d, want 3 distinct topics", e.Samples)
	}
	if math.Abs(e.Sel-2.0/3.0) > 1e-12 {
		t.Fatalf("sel = %v", e.Sel)
	}
	if math.Abs(e.Fanout-4.0/3.0) > 1e-12 {
		t.Fatalf("fanout = %v", e.Fanout)
	}
	// Mean terms = (1+2+1)/3 = 1.33 → ceil 2.
	if e.Terms != 2 {
		t.Fatalf("terms = %d, want 2", e.Terms)
	}
}

func TestPredicateCaching(t *testing.T) {
	svc, tbl := fixture(t)
	est := New(svc, WithSampleSize(100))
	if _, err := est.Predicate(tbl, "name", "author"); err != nil {
		t.Fatal(err)
	}
	u1 := svc.Meter().Snapshot()
	e2, err := est.Predicate(tbl, "name", "author")
	if err != nil {
		t.Fatal(err)
	}
	u2 := svc.Meter().Snapshot()
	if u2.Searches != u1.Searches {
		t.Fatal("cached estimate re-probed the service")
	}
	if e2.Samples != 4 {
		t.Fatal("cached estimate wrong")
	}
}

func TestPredicateSampling(t *testing.T) {
	svc, tbl := fixture(t)
	est := New(svc, WithSampleSize(2), WithSeed(7))
	e, err := est.Predicate(tbl, "name", "author")
	if err != nil {
		t.Fatal(err)
	}
	if e.Samples != 2 {
		t.Fatalf("samples = %d, want 2", e.Samples)
	}
	if u := svc.Meter().Snapshot(); u.Searches != 2 {
		t.Fatalf("sampling sent %d searches, want 2", u.Searches)
	}
	// Deterministic under the same seed.
	svc2, tbl2 := fixture(t)
	est2 := New(svc2, WithSampleSize(2), WithSeed(7))
	e2, err := est2.Predicate(tbl2, "name", "author")
	if err != nil {
		t.Fatal(err)
	}
	if e != e2 {
		t.Fatalf("sampling not deterministic: %+v vs %+v", e, e2)
	}
}

func TestPredicateErrors(t *testing.T) {
	svc, tbl := fixture(t)
	est := New(svc)
	if _, err := est.Predicate(tbl, "zzz", "author"); err == nil {
		t.Fatal("missing column accepted")
	}
	empty := relation.NewTable("e", tbl.Schema)
	if _, err := est.Predicate(empty, "name", "author"); err == nil {
		t.Fatal("empty column accepted")
	}
}

func TestSelection(t *testing.T) {
	svc, _ := fixture(t)
	est := New(svc)
	sel := textidx.Term{Field: "title", Word: "text"}
	st, err := est.Selection(sel)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fanout != 3 || st.Postings != 3 {
		t.Fatalf("selection stats = %+v", st)
	}
	u1 := svc.Meter().Snapshot()
	if _, err := est.Selection(sel); err != nil {
		t.Fatal(err)
	}
	if svc.Meter().Snapshot().Searches != u1.Searches {
		t.Fatal("cached selection re-searched")
	}
}

func TestBuildParams(t *testing.T) {
	svc, tbl := fixture(t)
	est := New(svc, WithSampleSize(100))
	spec := &join.Spec{
		Relation: tbl,
		Preds: []join.Pred{
			{Column: "name", Field: "author"},
			{Column: "topic", Field: "title"},
		},
		TextSel:  textidx.Term{Field: "title", Word: "text"},
		LongForm: true,
	}
	p, err := est.BuildParams(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.D != 4 || p.N != 4 || p.G != 1 || !p.LongForm {
		t.Fatalf("params = %+v", p)
	}
	if len(p.Preds) != 2 {
		t.Fatalf("preds = %d", len(p.Preds))
	}
	if math.Abs(p.Preds[0].Sel-0.75) > 1e-12 || p.Preds[0].Distinct != 4 {
		t.Fatalf("pred0 = %+v", p.Preds[0])
	}
	if !p.HasSel || p.SelFanout != 3 || p.SelTerms != 1 {
		t.Fatalf("selection params = %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildParamsRejectsBadSpec(t *testing.T) {
	svc, _ := fixture(t)
	est := New(svc)
	if _, err := est.BuildParams(&join.Spec{}, 1); err == nil {
		t.Fatal("bad spec accepted")
	}
}

func TestProbeColumnsFor(t *testing.T) {
	_, tbl := fixture(t)
	spec := &join.Spec{
		Relation: tbl,
		Preds: []join.Pred{
			{Column: "name", Field: "author"},
			{Column: "topic", Field: "title"},
			{Column: "name", Field: "title"},
		},
	}
	cols := ProbeColumnsFor(spec, []int{0, 2})
	if len(cols) != 1 || cols[0] != "name" {
		t.Fatalf("probe columns = %v", cols)
	}
	cols = ProbeColumnsFor(spec, []int{1, 0})
	if len(cols) != 2 {
		t.Fatalf("probe columns = %v", cols)
	}
}

func TestChooseMethodRunsEndToEnd(t *testing.T) {
	svc, tbl := fixture(t)
	est := New(svc, WithSampleSize(100))
	spec := &join.Spec{
		Relation: tbl,
		Preds: []join.Pred{
			{Column: "name", Field: "author"},
			{Column: "topic", Field: "title"},
		},
		LongForm: false,
	}
	m, p, predicted, err := est.ChooseMethod(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil || p == nil || math.IsInf(predicted, 1) {
		t.Fatalf("ChooseMethod returned %v, %v, %v", m, p, predicted)
	}
	// The chosen method must execute and agree with the naive oracle.
	res, err := m.Execute(bg, spec, svc)
	if err != nil {
		t.Fatalf("%s: %v", m.Name(), err)
	}
	want, err := join.NaiveJoin(spec, svc.Index())
	if err != nil {
		t.Fatal(err)
	}
	if !join.SameRows(res.Table, want) {
		t.Fatalf("%s result differs from naive", m.Name())
	}
}

func TestInstantiateMethod(t *testing.T) {
	svc, tbl := fixture(t)
	est := New(svc, WithSampleSize(100))
	spec := &join.Spec{
		Relation: tbl,
		Preds: []join.Pred{
			{Column: "name", Field: "author"},
			{Column: "topic", Field: "title"},
		},
	}
	p, err := est.BuildParams(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range cost.AllMethods {
		method, err := InstantiateMethod(spec, p, m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if method == nil {
			t.Fatalf("%v: nil method", m)
		}
		J, _ := p.Choose(m)
		var got []string
		switch pm := method.(type) {
		case join.PTS:
			got = pm.ProbeColumns
		case join.PRTP:
			got = pm.ProbeColumns
		default:
			continue
		}
		if want := ProbeColumnsFor(spec, J); len(J) == 0 || !slices.Equal(got, want) {
			t.Errorf("%v probes %v, want %v (J = %v)", m, got, want, J)
		}
	}
	if _, err := InstantiateMethod(spec, p, cost.Method(99)); err == nil {
		t.Fatal("unknown method instantiated")
	}
}
