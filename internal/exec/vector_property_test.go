package exec

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"textjoin/internal/cost"
	"textjoin/internal/join"
	"textjoin/internal/plan"
	"textjoin/internal/relation"
	"textjoin/internal/shard"
	"textjoin/internal/sqlparse"
	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
	"textjoin/internal/value"
)

// This file is the equivalence harness gating the vectorized execution
// core: on random corpora, tables and plans, the executor must produce
// exactly the same rows as a from-first-principles oracle (relational
// primitives + join.NaiveJoin), for every foreign-join
// method, against 1-, 2- and 4-shard federations with 30% of service calls
// failing transiently under a retry budget that outlasts them. Every
// execution also checks exact meter mirroring: the per-query meter's
// charges must equal the shared root meters' delta. Plans go through
// plan.Prune first, so projection pruning and filter pushdown are under
// the same gate.

// vectorPropertySeed fixes the harness's randomness so CI failures
// reproduce (scripts/check.sh runs the suite under -race with this seed).
const vectorPropertySeed = 71

// vecTrial is one random workload: a corpus, a two-table catalog, and the
// ingredients of a Scan → Join → TextJoin → Project plan over them.
type vecTrial struct {
	ix       *textidx.Index
	cat      *sqlparse.Catalog
	predA    relation.Predicate // pushed-down selection on table r
	equi     []relation.EquiJoinCond
	residual relation.Predicate
	preds    []sqlparse.ForeignPred
	sel      textidx.Expr
	longForm bool
	outCols  []string
}

func (tr *vecTrial) docFields() []string {
	if tr.longForm {
		return []string{"title"}
	}
	return nil
}

// randomVecTrial builds one random workload.
func randomVecTrial(rng *rand.Rand) *vecTrial {
	vocab := []string{"belief", "update", "text", "retrieval", "pws", "mercury",
		"filtering", "garcia", "gravano", "kao", "radhika", "ullman"}
	word := func() string { return vocab[rng.Intn(len(vocab))] }
	textVal := func() value.Value {
		switch rng.Intn(6) {
		case 0:
			return value.String(word() + " " + word()) // phrase value
		case 1:
			return value.String("zzz" + word()) // never matches
		default:
			return value.String(word())
		}
	}
	grp := func() value.Value {
		return value.String([]string{"g0", "g1", "g2"}[rng.Intn(3)])
	}

	ix := textidx.NewIndex()
	for d, n := 0, 1+rng.Intn(25); d < n; d++ {
		doc := textidx.Document{ExtID: fmt.Sprintf("d%02d", d), Fields: map[string]string{}}
		for _, f := range []string{"title", "author"} {
			words := make([]string, rng.Intn(5))
			for i := range words {
				words[i] = word()
			}
			text := ""
			for i, w := range words {
				if i > 0 {
					text += " "
				}
				text += w
			}
			doc.Fields[f] = text
		}
		doc.Fields["year"] = []string{"1993", "1994", "1995"}[rng.Intn(3)]
		ix.MustAdd(doc)
	}
	ix.Freeze()

	r := relation.NewTable("r", relation.MustSchema(
		relation.Column{Name: "c0", Kind: value.KindString},
		relation.Column{Name: "c1", Kind: value.KindString},
		relation.Column{Name: "c2", Kind: value.KindInt},
	))
	for i, n := 0, 1+rng.Intn(15); i < n; i++ {
		r.MustInsert(relation.Tuple{textVal(), grp(), value.Int(int64(rng.Intn(6)))})
	}
	s := relation.NewTable("s", relation.MustSchema(
		relation.Column{Name: "d0", Kind: value.KindString},
		relation.Column{Name: "d1", Kind: value.KindString},
	))
	for i, n := 0, 1+rng.Intn(10); i < n; i++ {
		s.MustInsert(relation.Tuple{textVal(), grp()})
	}

	tr := &vecTrial{
		ix: ix,
		cat: &sqlparse.Catalog{
			Tables: map[string]*relation.Table{"r": r, "s": s},
			Text: map[string]*sqlparse.TextSourceInfo{
				"mercury": {Name: "mercury", Fields: []string{"title", "author", "year"}},
			},
		},
		predA: relation.True{},
		preds: []sqlparse.ForeignPred{
			{Table: "r", Column: "r.c0", Field: "author"},
			{Table: "s", Column: "s.d0", Field: []string{"title", "author"}[rng.Intn(2)]},
		},
		longForm: rng.Intn(2) == 0,
		outCols:  []string{"r.c0", "s.d0", "mercury.docid"},
	}
	if rng.Intn(2) == 0 {
		tr.predA = relation.ColConst{Col: "r.c2", Op: relation.OpGt, Const: value.Int(int64(rng.Intn(4)))}
	}
	switch rng.Intn(3) {
	case 0:
		tr.equi = []relation.EquiJoinCond{{Left: "r.c1", Right: "s.d1"}}
	case 1:
		tr.residual = relation.ColCol{Left: "r.c1", Op: relation.OpNe, Right: "s.d1"}
	}
	if rng.Intn(2) == 0 {
		tr.sel = textidx.Term{Field: "year", Word: []string{"1993", "1994", "1995"}[rng.Intn(3)]}
	}
	if tr.longForm {
		tr.outCols = append(tr.outCols, "mercury.title")
	}
	return tr
}

// plan builds the physical plan for one method, pruned the way the engine
// prunes before execution (projection pruning + filter pushdown).
func (tr *vecTrial) plan(method cost.Method, probeCols []string) plan.Node {
	algorithm := "nested-loop"
	if len(tr.equi) > 0 {
		algorithm = "hash"
	}
	root := &plan.Project{
		Input: &plan.TextJoin{
			Input: &plan.Join{
				Left:      &plan.Scan{Table: "r", Pred: tr.predA},
				Right:     &plan.Scan{Table: "s", Pred: relation.True{}},
				Equi:      tr.equi,
				Residual:  tr.residual,
				Algorithm: algorithm,
			},
			Source:       "mercury",
			Method:       method,
			ProbeColumns: probeCols,
			Preds:        tr.preds,
			TextSel:      tr.sel,
			LongForm:     tr.longForm,
			DocFields:    tr.docFields(),
		},
		Columns: tr.outCols,
	}
	return plan.Prune(root, func(name string) (*relation.Schema, bool) {
		t, ok := tr.cat.Tables[name]
		if !ok {
			return nil, false
		}
		return t.Schema.Qualify(t.Name), true
	})
}

// oracle evaluates the trial's query from first principles: relational
// primitives for the scans and join, join.NaiveJoin (full index scan) for
// the foreign join, then the projection.
func (tr *vecTrial) oracle() (*relation.Table, error) {
	a, err := tr.cat.Tables["r"].Qualified().Select(tr.predA)
	if err != nil {
		return nil, err
	}
	b := tr.cat.Tables["s"].Qualified()
	var pred relation.Predicate = relation.True{}
	if len(tr.equi) > 0 {
		var conj relation.And
		for _, eq := range tr.equi {
			conj = append(conj, relation.ColCol{Left: eq.Left, Op: relation.OpEq, Right: eq.Right})
		}
		pred = conj
	} else if tr.residual != nil {
		pred = tr.residual
	}
	joined, err := relation.NestedLoopJoin(a, b, pred)
	if err != nil {
		return nil, err
	}
	spec := &join.Spec{
		Relation:  joined,
		Preds:     toJoinPreds(tr.preds),
		TextSel:   tr.sel,
		LongForm:  tr.longForm,
		DocFields: tr.docFields(),
	}
	nv, err := join.NaiveJoin(spec, tr.ix)
	if err != nil {
		return nil, err
	}
	return qualifyDocColumns(nv, joined.Schema.Arity(), "mercury", tr.docFields()).Project(tr.outCols...)
}

// faultyShardedExec builds an n-shard federation over ix with every shard
// failing 30% of calls transiently, each wrapped in a retry budget large
// enough to always outlast the faults.
func faultyShardedExec(t *testing.T, ix *textidx.Index, n int, seed int64) *shard.Sharded {
	t.Helper()
	svc, err := shard.NewLocalCluster(ix, n,
		[]texservice.LocalOption{texservice.WithShortFields("title", "author", "year")},
		func(k int, s texservice.Service) texservice.Service {
			return texservice.NewFaulty(s, texservice.FaultConfig{
				ErrorRate: 0.3, Seed: seed + int64(k),
			})
		},
		shard.WithRetry(texservice.RetryPolicy{
			MaxAttempts: 25, BaseDelay: time.Microsecond, MaxDelay: time.Millisecond,
		}))
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestVectorizedEquivalence is the harness proper: every join method ×
// shard counts {1,2,4} × injected faults, all asserted equivalent to the
// oracle, with exact meter mirroring and nonzero batch accounting on every
// run.
func TestVectorizedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(vectorPropertySeed))
	trials := 8
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		tr := randomVecTrial(rng)
		want, err := tr.oracle()
		if err != nil {
			t.Fatalf("trial %d: oracle: %v", trial, err)
		}

		type mcase struct {
			method    cost.Method
			probeCols []string
		}
		cases := []mcase{
			{cost.MethodTS, nil},
			{cost.MethodSJRTP, nil},
			{cost.MethodPTS, []string{"r.c0"}},
			{cost.MethodPRTP, []string{"s.d0"}},
			{cost.MethodPTSBatch, []string{"r.c0"}},
			{cost.MethodPRTPBatch, []string{"s.d0"}},
		}
		if tr.sel != nil {
			cases = append(cases, mcase{cost.MethodRTP, nil})
		}
		for _, n := range []int{1, 2, 4} {
			seed := rng.Int63()
			for _, c := range cases {
				svc := faultyShardedExec(t, tr.ix, n, seed)
				ex := &Executor{Cat: tr.cat, Svc: svc}
				rootBefore := svc.Meter().Snapshot()
				got, st, err := ex.Run(bg, tr.plan(c.method, c.probeCols))
				if err != nil {
					t.Fatalf("trial %d n=%d %v: %v", trial, n, c.method, err)
				}
				if !join.SameRows(got, want) {
					t.Errorf("trial %d n=%d %v: %d rows, oracle %d rows",
						trial, n, c.method, got.Cardinality(), want.Cardinality())
				}
				// Exact meter mirroring: the per-query meter's charges
				// (st.Usage) must equal the shared root meters' delta —
				// the services are fresh, so nothing else charged them.
				if delta := svc.Meter().Snapshot().Sub(rootBefore); delta != st.Usage {
					t.Errorf("trial %d n=%d %v: query meter %+v != root meter delta %+v",
						trial, n, c.method, st.Usage, delta)
				}
				if got.Cardinality() > 0 && st.Batches == 0 {
					t.Errorf("trial %d n=%d %v: run emitted rows but no batches",
						trial, n, c.method)
				}
			}
		}
	}
}
