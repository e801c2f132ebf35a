package workload

import (
	"strings"
	"testing"

	"textjoin/internal/sqlparse"
)

func TestQ5WorkloadValid(t *testing.T) {
	w, err := Q5(DefaultQ5())
	if err != nil {
		t.Fatal(err)
	}
	q, err := sqlparse.Parse(w.Query)
	if err != nil {
		t.Fatalf("Q5 query does not parse: %v", err)
	}
	a, err := sqlparse.Analyze(q, w.Catalog)
	if err != nil {
		t.Fatalf("Q5 query does not analyze: %v", err)
	}
	if len(a.Tables) != 2 || a.SingleSource() != "mercury" || len(a.Foreign) != 2 {
		t.Fatalf("Q5 classification: %+v", a)
	}
	svc, err := w.Service()
	if err != nil {
		t.Fatal(err)
	}
	// The default regime keeps author out of the short form.
	for _, f := range svc.ShortFields() {
		if f == "author" {
			t.Fatal("author must not be in the default Q5 short form")
		}
	}
	// Opt-in variant includes it.
	cfg := DefaultQ5()
	cfg.AuthorInShortForm = true
	w2, err := Q5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(w2.ShortFields, ","), "author") {
		t.Fatal("AuthorInShortForm not honoured")
	}
}

func TestQ5ConfigValidation(t *testing.T) {
	bad := []Q5Config{
		{Students: 2, Faculty: 2, PubStudents: 3, PubFaculty: 1, Docs: 5},
		{Students: 2, Faculty: 2, PubStudents: 1, PubFaculty: 3, Docs: 5},
		{Students: 2, Faculty: 2, PubStudents: 0, PubFaculty: 1, Docs: 5},
		{Students: 2, Faculty: 2, PubStudents: 1, PubFaculty: 1, Docs: 0},
	}
	for i, cfg := range bad {
		if _, err := Q5(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestChainWorkload(t *testing.T) {
	w, err := Chain(ChainConfig{Relations: 4, RowsEach: 10, Docs: 15, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Catalog.Tables) != 4 {
		t.Fatalf("tables = %d", len(w.Catalog.Tables))
	}
	q, err := sqlparse.Parse(w.Query)
	if err != nil {
		t.Fatalf("chain query does not parse: %v", err)
	}
	a, err := sqlparse.Analyze(q, w.Catalog)
	if err != nil {
		t.Fatalf("chain query does not analyze: %v", err)
	}
	if len(a.Edges) != 3 {
		t.Fatalf("edges = %d, want 3", len(a.Edges))
	}
	if _, err := w.Service(); err != nil {
		t.Fatal(err)
	}
}

func TestChainConfigValidation(t *testing.T) {
	bad := []ChainConfig{
		{Relations: 0, RowsEach: 5, Docs: 5},
		{Relations: 2, RowsEach: 0, Docs: 5},
		{Relations: 2, RowsEach: 5, Docs: 0},
	}
	for i, cfg := range bad {
		if _, err := Chain(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestDemoEnvironment(t *testing.T) {
	demo := NewDemo(300, 4)
	if len(demo.Catalog.Tables) != 3 {
		t.Fatalf("demo tables = %d", len(demo.Catalog.Tables))
	}
	for _, name := range []string{"student", "faculty", "project"} {
		tbl, ok := demo.Catalog.Tables[name]
		if !ok || tbl.Cardinality() == 0 {
			t.Fatalf("demo table %q missing or empty", name)
		}
	}
	if demo.Catalog.Text["mercury"] == nil {
		t.Fatal("demo text source missing")
	}
	if demo.Corpus.Index.NumDocs() != 300 {
		t.Fatalf("demo corpus = %d docs", demo.Corpus.Index.NumDocs())
	}
	// Some students and some projects join with the corpus.
	students, err := demo.Catalog.Tables["student"].Column("name")
	if err != nil {
		t.Fatal(err)
	}
	matching := 0
	for _, s := range students {
		if demo.Corpus.Index.DocFrequency("author", s.Text()) > 0 {
			matching++
		}
	}
	if matching == 0 {
		t.Fatal("no demo student publishes; example queries would be empty")
	}
}

func TestQ4ConfigValidation(t *testing.T) {
	c := NewCorpus(CorpusConfig{Docs: 100, Seed: 1})
	bad := []Q4Config{
		{N: 0, N1: 1},
		{N: 5, N1: 0},
		{N: 5, N1: 6},
		{N: 5, N1: 2, S1: 1.5},
		{N: 5, N1: 2, S1: 1, S2: -0.5},
	}
	for i, cfg := range bad {
		if _, err := c.Q4(cfg); err == nil {
			t.Errorf("Q4 config %d accepted", i)
		}
	}
	// Q4 needing more advisors than the pool has.
	tiny := NewCorpus(CorpusConfig{Docs: 4, Seed: 1})
	if _, err := tiny.Q4(Q4Config{N: 10, N1: 10, S1: 1, S2: 0.5}); err == nil {
		t.Error("pool overflow accepted")
	}
}

func TestQ1Q3ConfigValidation(t *testing.T) {
	c := NewCorpus(CorpusConfig{Docs: 100, Seed: 1})
	if _, err := c.Q1(Q1Config{N: 0}); err == nil {
		t.Error("Q1 N=0 accepted")
	}
	if _, err := c.Q1(Q1Config{N: 5, S1: 2}); err == nil {
		t.Error("Q1 S1=2 accepted")
	}
	if _, err := c.Q3(Q3Config{N: 0, N1: 1}); err == nil {
		t.Error("Q3 N=0 accepted")
	}
	if _, err := c.Q3(Q3Config{N: 5, N1: 2, S1: -1}); err == nil {
		t.Error("Q3 S1<0 accepted")
	}
	if _, err := c.Q3(Q3Config{N: 500, N1: 500, S1: 1, N2: 10, S2: 0}); err == nil {
		t.Error("Q3 tag pool overflow accepted")
	}
}
