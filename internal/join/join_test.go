package join

import (
	"context"
	"slices"
	"strings"
	"testing"

	"textjoin/internal/cost"
	"textjoin/internal/relation"
	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
	"textjoin/internal/value"
)

// corpus builds a small CSTR-like collection.
func corpus(t testing.TB) *textidx.Index {
	t.Helper()
	ix := textidx.NewIndex()
	docs := []textidx.Document{
		{ExtID: "r0", Fields: map[string]string{
			"title": "Belief Update in Knowledge Bases", "author": "Radhika", "year": "1993"}},
		{ExtID: "r1", Fields: map[string]string{
			"title": "The PWS Project Overview", "author": "Gravano Kao", "year": "1994"}},
		{ExtID: "r2", Fields: map[string]string{
			"title": "Text Indexing for PWS", "author": "Kao", "year": "1994"}},
		{ExtID: "r3", Fields: map[string]string{
			"title": "Distributed Text Systems", "author": "Garcia Gravano", "year": "1993"}},
		{ExtID: "r4", Fields: map[string]string{
			"title": "Text Filtering", "author": "Ullman", "year": "1995"}},
		{ExtID: "r5", Fields: map[string]string{
			"title": "Belief Revision Reconsidered", "author": "Radhika Garcia", "year": "1995"}},
	}
	for _, d := range docs {
		ix.MustAdd(d)
	}
	ix.Freeze()
	return ix
}

func service(t testing.TB, ix *textidx.Index) *texservice.Local {
	t.Helper()
	svc, err := texservice.NewLocal(ix, texservice.WithShortFields("title", "author", "year"))
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// projectRelation mirrors Q3: project(name, member).
func projectRelation(t testing.TB) *relation.Table {
	t.Helper()
	schema := relation.MustSchema(
		relation.Column{Name: "name", Kind: value.KindString},
		relation.Column{Name: "member", Kind: value.KindString},
	)
	tbl := relation.NewTable("project", schema)
	rows := [][2]string{
		{"PWS", "Gravano"},
		{"PWS", "Kao"},
		{"PWS", "DeSmedt"},
		{"Mercury", "Radhika"},
		{"Mercury", "Garcia"},
		{"NoSuchProject", "Gravano"},
		{"NoSuchProject", "Pham"},
		{"Belief", "Radhika"},
	}
	for _, r := range rows {
		tbl.MustInsert(relation.Tuple{value.String(r[0]), value.String(r[1])})
	}
	return tbl
}

// q3Spec joins project.name in title and project.member in author.
func q3Spec(t testing.TB, longForm bool) *Spec {
	t.Helper()
	return &Spec{
		Relation: projectRelation(t),
		Preds: []Pred{
			{Column: "name", Field: "title"},
			{Column: "member", Field: "author"},
		},
		LongForm:  longForm,
		DocFields: []string{"title"},
	}
}

// allMethods returns every method configuration the executor and the
// experiments build, for Q3's spec (probe methods on each probe column).
// RTP is left out: it needs a text selection.
func allMethods() []Method {
	name, member := []string{"name"}, []string{"member"}
	return []Method{
		TS{},
		TS{Batched: true},
		SJRTP{},
		PTS{ProbeColumns: name},
		PTS{ProbeColumns: member},
		PTS{ProbeColumns: name, Lazy: true},
		PTS{ProbeColumns: member, Lazy: true},
		PTS{ProbeColumns: name, Batched: true},
		PTS{ProbeColumns: member, Batched: true},
		PRTP{ProbeColumns: name},
		PRTP{ProbeColumns: member},
		PRTP{ProbeColumns: name, Batched: true},
		PRTP{ProbeColumns: member, Batched: true},
	}
}

func TestAllMethodsAgreeWithNaive(t *testing.T) {
	ix := corpus(t)
	for _, longForm := range []bool{false, true} {
		spec := q3Spec(t, longForm)
		want, err := NaiveJoin(spec, ix)
		if err != nil {
			t.Fatal(err)
		}
		if want.Cardinality() == 0 {
			t.Fatal("fixture produces an empty join; tests would be vacuous")
		}
		for _, m := range allMethods() {
			svc := service(t, ix)
			res, err := m.Execute(bg, spec, svc)
			if err != nil {
				t.Fatalf("longForm=%v %s: %v", longForm, m.Name(), err)
			}
			if !SameRows(res.Table, want) {
				t.Errorf("longForm=%v %s: %d rows, naive %d rows\n%v\nvs\n%v",
					longForm, m.Name(), res.Table.Cardinality(), want.Cardinality(),
					Canonical(res.Table), Canonical(want))
			}
			if res.Stats.ResultRows != res.Table.Cardinality() {
				t.Errorf("%s: stats rows %d != table rows %d",
					m.Name(), res.Stats.ResultRows, res.Table.Cardinality())
			}
		}
	}
}

func TestRTPAgreesWithNaiveUnderSelection(t *testing.T) {
	ix := corpus(t)
	spec := q3Spec(t, true)
	spec.TextSel = textidx.Term{Field: "year", Word: "1994"}
	want, err := NaiveJoin(spec, ix)
	if err != nil {
		t.Fatal(err)
	}
	methods := append(allMethods(), RTP{})
	for _, m := range methods {
		svc := service(t, ix)
		res, err := m.Execute(bg, spec, svc)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if !SameRows(res.Table, want) {
			t.Errorf("%s with selection: %d rows, naive %d", m.Name(),
				res.Table.Cardinality(), want.Cardinality())
		}
	}
}

func TestTSInvocationCount(t *testing.T) {
	ix := corpus(t)
	svc := service(t, ix)
	spec := q3Spec(t, true)
	res, err := TS{}.Execute(bg, spec, svc)
	if err != nil {
		t.Fatal(err)
	}
	// 8 rows but 8 distinct (name, member) bindings → 8 searches.
	if res.Stats.Usage.Searches != 8 {
		t.Fatalf("TS sent %d searches, want 8", res.Stats.Usage.Searches)
	}

	// Duplicate a tuple: the distinct variant must not send more searches.
	spec.Relation.MustInsert(relation.Tuple{value.String("PWS"), value.String("Gravano")})
	svc2 := service(t, ix)
	res2, err := TS{}.Execute(bg, spec, svc2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Usage.Searches != 8 {
		t.Fatalf("TS with duplicate binding sent %d searches, want 8", res2.Stats.Usage.Searches)
	}
	// The duplicate tuple still contributes its rows.
	if res2.Table.Cardinality() != res.Table.Cardinality()+1 {
		t.Fatalf("duplicate binding rows: %d, want %d",
			res2.Table.Cardinality(), res.Table.Cardinality()+1)
	}
}

func TestRTPSingleInvocation(t *testing.T) {
	ix := corpus(t)
	svc := service(t, ix)
	spec := q3Spec(t, false)
	spec.TextSel = textidx.Term{Field: "year", Word: "1994"}
	res, err := RTP{}.Execute(bg, spec, svc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Usage.Searches != 1 {
		t.Fatalf("RTP sent %d searches, want 1", res.Stats.Usage.Searches)
	}
	if res.Stats.Usage.RTPDocs == 0 {
		t.Fatal("RTP charged no relational matching work")
	}
}

func TestRTPRequiresSelection(t *testing.T) {
	ix := corpus(t)
	svc := service(t, ix)
	spec := q3Spec(t, false)
	if err := (RTP{}).Applicable(spec, svc); err == nil {
		t.Fatal("RTP applicable without a selection")
	}
	if _, err := (RTP{}).Execute(bg, spec, svc); err == nil {
		t.Fatal("RTP executed without a selection")
	}
}

func TestRTPRequiresShortFields(t *testing.T) {
	ix := corpus(t)
	svc, err := texservice.NewLocal(ix, texservice.WithShortFields("title"))
	if err != nil {
		t.Fatal(err)
	}
	spec := q3Spec(t, false)
	spec.TextSel = textidx.Term{Field: "year", Word: "1994"}
	// The member→author predicate needs "author" in the short form.
	if err := (RTP{}).Applicable(spec, svc); err == nil {
		t.Fatal("RTP applicable although author is not a short field")
	} else if !strings.Contains(err.Error(), "author") {
		t.Fatalf("error does not name the missing field: %v", err)
	}
}

func TestSJBatchingRespectsTermLimit(t *testing.T) {
	ix := corpus(t)
	// Each tuple conjunct uses 2 terms; M=5 → 2 bindings per batch
	// (4 terms), 8 bindings → 4 batches.
	svc, err := texservice.NewLocal(ix,
		texservice.WithShortFields("title", "author", "year"),
		texservice.WithMaxTerms(5))
	if err != nil {
		t.Fatal(err)
	}
	spec := q3Spec(t, false)
	res, err := SJRTP{}.Execute(bg, spec, svc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Usage.Searches != 4 {
		t.Fatalf("SJ sent %d searches, want 4", res.Stats.Usage.Searches)
	}
	want, err := NaiveJoin(spec, ix)
	if err != nil {
		t.Fatal(err)
	}
	if !SameRows(res.Table, want) {
		t.Fatal("batched SJ result differs from naive")
	}
}

func TestSJRejectsOversizedTuple(t *testing.T) {
	ix := corpus(t)
	svc, err := texservice.NewLocal(ix,
		texservice.WithShortFields("title", "author", "year"),
		texservice.WithMaxTerms(2))
	if err != nil {
		t.Fatal(err)
	}
	spec := q3Spec(t, false)
	// "Belief Update in Knowledge Bases" as a member value needs 5 terms.
	spec.Relation.MustInsert(relation.Tuple{
		value.String("PWS"), value.String("A Very Long Member Name")})
	applErr := (SJRTP{}).Applicable(spec, svc)
	if applErr == nil {
		t.Fatal("oversized conjunct accepted")
	}
	// Execute rejects the spec with the same error before any search: the
	// oversized binding comes last, so a packer that checked bindings as it
	// flushed them would already have searched the earlier ones.
	before := svc.Meter().Snapshot()
	res, err := (SJRTP{}).Execute(bg, spec, svc)
	if err == nil || res != nil {
		t.Fatalf("Execute = %v, %v; want the oversize error", res, err)
	}
	if err.Error() != applErr.Error() {
		t.Fatalf("Execute error %q, Applicable error %q", err, applErr)
	}
	if d := svc.Meter().Snapshot().Sub(before); d.Searches != 0 {
		t.Fatalf("Execute searched %d times before rejecting", d.Searches)
	}
}

func TestPTSProbeCacheSavesInvocations(t *testing.T) {
	ix := corpus(t)
	spec := q3Spec(t, true)
	// Bindings with name='NoSuchProject' (2 of them) share a failing
	// probe; the cache must turn the second into zero invocations.
	svcPlain := service(t, ix)
	resTS, err := TS{}.Execute(bg, spec, svcPlain)
	if err != nil {
		t.Fatal(err)
	}

	svcProbe := service(t, ix)
	resP, err := PTS{ProbeColumns: []string{"name"}, Lazy: true}.Execute(bg, spec, svcProbe)
	if err != nil {
		t.Fatal(err)
	}
	if !SameRows(resP.Table, resTS.Table) {
		t.Fatal("P+TS result differs from TS")
	}
	if resP.Stats.Probes == 0 {
		t.Fatal("P+TS sent no probes")
	}
	// Full queries sent by P+TS = searches − probes; with the cache the
	// second NoSuchProject binding is skipped, so fewer full queries than
	// TS's 8.
	fullQueries := resP.Stats.Usage.Searches - resP.Stats.Probes
	if fullQueries >= resTS.Stats.Usage.Searches {
		t.Fatalf("P+TS sent %d full queries, TS sent %d — cache saved nothing",
			fullQueries, resTS.Stats.Usage.Searches)
	}
}

func TestPTSNoDuplicateProbes(t *testing.T) {
	ix := corpus(t)
	spec := q3Spec(t, false)
	svc := service(t, ix)
	res, err := PTS{ProbeColumns: []string{"name"}, Lazy: true}.Execute(bg, spec, svc)
	if err != nil {
		t.Fatal(err)
	}
	// Probe-column distinct values: PWS, Mercury, NoSuchProject, Belief.
	// Probes are sent only after a failure, at most one per distinct
	// probe binding.
	if res.Stats.Probes > 4 {
		t.Fatalf("sent %d probes for 4 distinct probe bindings", res.Stats.Probes)
	}
}

// TestPTSEagerInvocationCounts checks the eager variant against the
// C_{P+TS} formula's structure: exactly one probe per distinct probe
// binding, and one substituted search per binding whose probe succeeded.
func TestPTSEagerInvocationCounts(t *testing.T) {
	ix := corpus(t)
	spec := q3Spec(t, false)
	svc := service(t, ix)
	res, err := PTS{ProbeColumns: []string{"name"}}.Execute(bg, spec, svc)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct names: PWS, Mercury, NoSuchProject, Belief → 4 probes.
	if res.Stats.Probes != 4 {
		t.Fatalf("eager probes = %d, want 4", res.Stats.Probes)
	}
	// Succeeding probe values: PWS (r1, r2) and Belief (r0, r5). Bindings
	// with those names: PWS×{Gravano, Kao, DeSmedt} and Belief×{Radhika}
	// → 4 substituted searches.
	full := res.Stats.Usage.Searches - res.Stats.Probes
	if full != 4 {
		t.Fatalf("eager substitutions = %d, want 4", full)
	}
}

func TestProbeColumnValidation(t *testing.T) {
	ix := corpus(t)
	svc := service(t, ix)
	spec := q3Spec(t, false)
	cases := []Method{
		PTS{},
		PTS{ProbeColumns: []string{"zzz"}},
		PTS{ProbeColumns: []string{"name", "name"}},
		PRTP{},
		PRTP{ProbeColumns: []string{"zzz"}},
	}
	for _, m := range cases {
		if err := m.Applicable(spec, svc); err == nil {
			t.Errorf("%T %v accepted", m, m)
		}
	}
	// Probing requires ≥2 predicates.
	single := &Spec{
		Relation: projectRelation(t),
		Preds:    []Pred{{Column: "name", Field: "title"}},
	}
	if err := (PTS{ProbeColumns: []string{"name"}}).Applicable(single, svc); err == nil {
		t.Error("P+TS accepted a single-predicate join")
	}
	if err := (PRTP{ProbeColumns: []string{"name"}}).Applicable(single, svc); err == nil {
		t.Error("P+RTP accepted a single-predicate join")
	}
}

func TestPRTPProbeCount(t *testing.T) {
	ix := corpus(t)
	svc := service(t, ix)
	spec := q3Spec(t, false)
	res, err := PRTP{ProbeColumns: []string{"name"}}.Execute(bg, spec, svc)
	if err != nil {
		t.Fatal(err)
	}
	// One probe per distinct probe binding: 4.
	if res.Stats.Probes != 4 || res.Stats.Usage.Searches != 4 {
		t.Fatalf("P+RTP probes=%d searches=%d, want 4/4",
			res.Stats.Probes, res.Stats.Usage.Searches)
	}
}

func TestProbeReduce(t *testing.T) {
	ix := corpus(t)
	svc := service(t, ix)
	spec := q3Spec(t, false)
	reduced, stats, err := ProbeReduce(bg, spec, []string{"name"}, svc, false)
	if err != nil {
		t.Fatal(err)
	}
	// Surviving probe bindings: PWS (r1/r2 titles) and Belief (r0/r5).
	// Mercury and NoSuchProject never appear in titles.
	if reduced.Cardinality() != 4 {
		t.Fatalf("probe reduce kept %d tuples, want 4", reduced.Cardinality())
	}
	if stats.Probes != 4 {
		t.Fatalf("probe reduce sent %d probes, want 4", stats.Probes)
	}
	// Reduction must keep exactly the tuples whose probe column matches
	// some document — a semi-join on the probe predicate.
	for _, row := range reduced.Rows {
		name := row[0].Text()
		if name != "PWS" && name != "Belief" {
			t.Fatalf("tuple with name %q survived", name)
		}
	}
	if _, _, err := ProbeReduce(bg, spec, []string{"zzz"}, svc, false); err == nil {
		t.Fatal("bad probe column accepted")
	}
}

// intruder is a service another query shares: inside its first search it
// charges one search to its shared meter under a context of its own, as
// that concurrent query would.
type intruder struct {
	*texservice.Local
	charged bool
}

func (s *intruder) intrude() {
	if !s.charged {
		s.charged = true
		s.Meter().ChargeSearch(context.Background(), 0, 0, texservice.FormShort)
	}
}

func (s *intruder) Search(ctx context.Context, e textidx.Expr, form texservice.Form) (*texservice.Result, error) {
	s.intrude()
	return s.Local.Search(ctx, e, form)
}

func (s *intruder) BatchSearch(ctx context.Context, exprs []textidx.Expr, form texservice.Form) ([]*texservice.Result, error) {
	s.intrude()
	return s.Local.BatchSearch(ctx, exprs, form)
}

// TestUsageExcludesOtherQueries: an execution's Stats.Usage is its own,
// not a delta of the service's shared meter — another query's charge
// landing mid-execution must not be billed to it.
func TestUsageExcludesOtherQueries(t *testing.T) {
	ix := corpus(t)
	spec := q3Spec(t, true)
	for _, m := range allMethods() {
		solo, err := m.Execute(bg, spec, service(t, ix))
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		shared := &intruder{Local: service(t, ix)}
		res, err := m.Execute(bg, spec, shared)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if !shared.charged {
			t.Fatalf("%s: the other query never charged", m.Name())
		}
		if res.Stats.Usage != solo.Stats.Usage {
			t.Errorf("%s: usage %+v beside another query, %+v alone", m.Name(), res.Stats.Usage, solo.Stats.Usage)
		}
	}
	for _, batched := range []bool{false, true} {
		_, solo, err := ProbeReduce(bg, spec, []string{"name"}, service(t, ix), batched)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := ProbeReduce(bg, spec, []string{"name"}, &intruder{Local: service(t, ix)}, batched)
		if err != nil {
			t.Fatal(err)
		}
		if st.Usage != solo.Usage {
			t.Errorf("probe reduce batched=%v: usage %+v beside another query, %+v alone", batched, st.Usage, solo.Usage)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	ix := corpus(t)
	svc := service(t, ix)
	bad := []*Spec{
		{},
		{Relation: projectRelation(t)},
		{Relation: projectRelation(t), Preds: []Pred{{Column: "zzz", Field: "title"}}},
		{Relation: projectRelation(t), Preds: []Pred{{Column: "name", Field: ""}}},
		{Relation: projectRelation(t), Preds: []Pred{{Column: "name", Field: "title"}},
			TextSel: textidx.And{}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
		if _, err := (TS{}).Execute(bg, s, svc); err == nil {
			t.Errorf("bad spec %d executed", i)
		}
	}
}

func TestUnsearchableValuesProduceNoRows(t *testing.T) {
	ix := corpus(t)
	spec := q3Spec(t, false)
	spec.Relation.MustInsert(relation.Tuple{value.String("!!!"), value.String("Gravano")})
	spec.Relation.MustInsert(relation.Tuple{value.Null(), value.String("Kao")})
	want, err := NaiveJoin(spec, ix)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range allMethods() {
		svc := service(t, ix)
		res, err := m.Execute(bg, spec, svc)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if !SameRows(res.Table, want) {
			t.Errorf("%s differs from naive with unsearchable values", m.Name())
		}
	}
}

func TestOutputSchema(t *testing.T) {
	spec := q3Spec(t, true)
	s := spec.OutputSchema()
	if s.ColumnIndex(DocIDColumn) != 2 || s.ColumnIndex("title") != 3 {
		t.Fatalf("long-form schema: %v", s)
	}
	spec.LongForm = false
	s = spec.OutputSchema()
	if s.Arity() != 3 {
		t.Fatalf("short schema arity = %d", s.Arity())
	}
}

func TestJoinColumnsAndPredSplit(t *testing.T) {
	spec := &Spec{
		Relation: projectRelation(t),
		Preds: []Pred{
			{Column: "name", Field: "title"},
			{Column: "member", Field: "author"},
			{Column: "name", Field: "abstract"},
		},
	}
	cols := spec.JoinColumns()
	if len(cols) != 2 || cols[0] != "name" || cols[1] != "member" {
		t.Fatalf("JoinColumns = %v", cols)
	}
	on, off := spec.splitPreds([]string{"name"})
	if len(on) != 2 || on[0].Field != "title" || on[1].Field != "abstract" {
		t.Fatalf("splitPreds(name) on = %v", on)
	}
	if len(off) != 1 || off[0].Column != "member" {
		t.Fatalf("splitPreds(name) off = %v", off)
	}
	if (Pred{Column: "a", Field: "b"}).String() != "a in b" {
		t.Fatal("Pred rendering wrong")
	}
}

func TestMethodNames(t *testing.T) {
	if (TS{}).Name() != "TS" || (RTP{}).Name() != "RTP" || (SJRTP{}).Name() != "SJ+RTP" {
		t.Fatal("method names wrong")
	}
	if (PTS{}).Name() != "P+TS" || (PTS{Lazy: true}).Name() != "P+TS(lazy)" {
		t.Fatal("PTS names wrong")
	}
	if (PRTP{}).Name() != "P+RTP" {
		t.Fatal("PRTP name wrong")
	}
}

// TestBindingsDoNotCollide: ('x\x1fsy', 'z') and ('x', 'y\x1fsz') share a
// value.KeyOf but are two bindings with different matches, and every
// method returns exactly the naive join's rows for them.
func TestBindingsDoNotCollide(t *testing.T) {
	ix := textidx.NewIndex()
	ix.MustAdd(textidx.Document{ExtID: "d1", Fields: map[string]string{"title": "z", "author": "x sy"}})
	ix.MustAdd(textidx.Document{ExtID: "d2", Fields: map[string]string{"title": "y sz", "author": "x"}})
	ix.Freeze()
	tbl := relation.NewTable("project", relation.MustSchema(
		relation.Column{Name: "name", Kind: value.KindString},
		relation.Column{Name: "member", Kind: value.KindString},
	))
	tbl.MustInsert(relation.Tuple{value.String("z"), value.String("x\x1fsy")})
	tbl.MustInsert(relation.Tuple{value.String("y\x1fsz"), value.String("x")})
	if value.KeyOf(tbl.Rows[0][1], tbl.Rows[0][0]) != value.KeyOf(tbl.Rows[1][1], tbl.Rows[1][0]) {
		t.Fatal("fixture is vacuous: the bindings no longer share a KeyOf")
	}
	spec := &Spec{
		Relation: tbl,
		// member first, so the join columns' KeyOf strings coincide.
		Preds:     []Pred{{Column: "member", Field: "author"}, {Column: "name", Field: "title"}},
		LongForm:  true,
		DocFields: []string{"title"},
	}
	want, err := NaiveJoin(spec, ix)
	if err != nil {
		t.Fatal(err)
	}
	if want.Cardinality() != 2 {
		t.Fatalf("naive join has %d rows, want one per tuple", want.Cardinality())
	}
	for _, m := range allMethods() {
		res, err := m.Execute(bg, spec, service(t, ix))
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if !SameRows(res.Table, want) {
			t.Errorf("%s: rows %v, naive %v", m.Name(), res.Table.Rows, want.Rows)
		}
	}
}

// TestForMatchesCostModel: For names every cost-model method with the
// executable method of the same name, hands the probing methods their
// probe columns, and rejects an unknown method.
func TestForMatchesCostModel(t *testing.T) {
	cols := []string{"name", "member"}
	for _, m := range cost.AllMethods {
		method, err := For(m, cols)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if method.Name() != m.String() {
			t.Errorf("For(%v).Name() = %q", m, method.Name())
		}
		var got []string
		switch pm := method.(type) {
		case PTS:
			got = pm.ProbeColumns
		case PRTP:
			got = pm.ProbeColumns
		}
		probing := m == cost.MethodPTS || m == cost.MethodPRTP || m == cost.MethodPTSBatch || m == cost.MethodPRTPBatch
		if probing && !slices.Equal(got, cols) {
			t.Errorf("For(%v) probes %v, want %v", m, got, cols)
		}
	}
	if _, err := For(cost.Method(99), cols); err == nil {
		t.Fatal("For accepted an unknown method")
	}
}
