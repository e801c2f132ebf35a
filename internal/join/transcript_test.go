package join

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"textjoin/internal/cost"
	"textjoin/internal/relation"
	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
	"textjoin/internal/value"
)

// The search transcript locks every method's wire traffic: for each
// method configuration the executor and the experiments build, over Q3's
// spec on an in-process service, it records every search (expression text
// and form, batched invocations with their members), every long-form
// retrieval, the error if any, the result rows (count and an order-
// sensitive digest) and the execution's Stats. Any change to what a method
// sends, in what order, what it emits or what it is charged shows up as a
// diff against testdata/transcript.golden.
//
// Regenerate the file (after an intended behaviour change only) with
//
//	go test ./internal/join -run TestSearchTranscript -update

var updateTranscript = flag.Bool("update", false, "rewrite testdata/transcript.golden")

// transcriptService logs every call it forwards to the local backend.
type transcriptService struct {
	*texservice.Local
	log *strings.Builder
}

func (s transcriptService) Search(ctx context.Context, e textidx.Expr, form texservice.Form) (*texservice.Result, error) {
	fmt.Fprintf(s.log, "  search %s %s\n", form, e)
	return s.Local.Search(ctx, e, form)
}

func (s transcriptService) BatchSearch(ctx context.Context, exprs []textidx.Expr, form texservice.Form) ([]*texservice.Result, error) {
	fmt.Fprintf(s.log, "  batch %s %d\n", form, len(exprs))
	for _, e := range exprs {
		fmt.Fprintf(s.log, "    %s\n", e)
	}
	return s.Local.BatchSearch(ctx, exprs, form)
}

func (s transcriptService) Retrieve(ctx context.Context, id textidx.DocID) (textidx.Document, error) {
	fmt.Fprintf(s.log, "  retrieve %d\n", id)
	return s.Local.Retrieve(ctx, id)
}

// transcriptConfig is one method configuration: a method, or the probe
// reducer (reduce set) on the given columns.
type transcriptConfig struct {
	label   string
	method  Method
	reduce  []string
	batched bool
}

// transcriptConfigs lists the configurations For, exec's Probe node and
// internal/bench construct, plus each probing variant on both
// probe columns of Q3.
func transcriptConfigs() []transcriptConfig {
	name, member := []string{"name"}, []string{"member"}
	return []transcriptConfig{
		{label: "TS", method: TS{}},
		{label: "TS(batched)", method: TS{Batched: true}},
		{label: "RTP", method: RTP{}},
		{label: "SJ+RTP", method: SJRTP{}},
		{label: "P+TS name", method: PTS{ProbeColumns: name}},
		{label: "P+TS member", method: PTS{ProbeColumns: member}},
		{label: "P+TS(lazy) name", method: PTS{ProbeColumns: name, Lazy: true}},
		{label: "P+TS(lazy) member", method: PTS{ProbeColumns: member, Lazy: true}},
		{label: "P+TS(batched) name", method: PTS{ProbeColumns: name, Batched: true}},
		{label: "P+TS(batched) member", method: PTS{ProbeColumns: member, Batched: true}},
		{label: "P+RTP name", method: PRTP{ProbeColumns: name}},
		{label: "P+RTP member", method: PRTP{ProbeColumns: member}},
		{label: "P+RTP(batched) name", method: PRTP{ProbeColumns: name, Batched: true}},
		{label: "P+RTP(batched) member", method: PRTP{ProbeColumns: member, Batched: true}},
		{label: "reduce name", reduce: name},
		{label: "reduce member", reduce: member},
		{label: "reduce(batched) name", reduce: name, batched: true},
		{label: "reduce(batched) member", reduce: member, batched: true},
	}
}

// TestTranscriptLocksPlanSpace keeps the executable methods and the plan
// space one set. Every method configuration of the transcript is what For
// builds for some cost-model method on one of Q3's probe columns, or one
// of the two configurations whose formula exists but which no plan can
// pick yet; and every configuration For builds is in the transcript, so
// the transcript locks the whole plan space. A method that only an
// ablation or a test can run fails this.
func TestTranscriptLocksPlanSpace(t *testing.T) {
	var planned, pending []Method
	for _, cols := range [][]string{{"name"}, {"member"}} {
		for _, m := range cost.AllMethods {
			method, err := For(m, cols)
			if err != nil {
				t.Fatal(err)
			}
			planned = append(planned, method)
		}
		pending = append(pending,
			TS{Batched: true},                   // cost.Params.CostTSBatched
			PTS{ProbeColumns: cols, Lazy: true}, // cost.Params.CostPTSLazy
		)
	}
	has := func(ms []Method, m Method) bool {
		return slices.ContainsFunc(ms, func(x Method) bool { return reflect.DeepEqual(x, m) })
	}
	var configs []Method
	for _, c := range transcriptConfigs() {
		if c.method == nil {
			continue // the probe reducer
		}
		configs = append(configs, c.method)
		if !has(planned, c.method) && !has(pending, c.method) {
			t.Errorf("%s (%#v) is no plan choice and not pending one", c.label, c.method)
		}
	}
	for _, m := range planned {
		if !has(configs, m) {
			t.Errorf("For builds %#v, which the transcript does not run", m)
		}
	}
}

// transcriptSpecs are Q3's spec variants: short and long form, with a
// text selection, with a two-term And selection (a substituted search
// nests it, an OR-packed one flattens it into the batch's conjunction),
// and with extra rows carrying an unsearchable value, a null and a
// multi-word value that overflows a small term limit.
func transcriptSpecs(t *testing.T) []struct {
	label string
	spec  func() *Spec
} {
	return []struct {
		label string
		spec  func() *Spec
	}{
		{"short", func() *Spec { return q3Spec(t, false) }},
		{"long", func() *Spec { return q3Spec(t, true) }},
		{"sel", func() *Spec {
			s := q3Spec(t, true)
			s.TextSel = textidx.Term{Field: "year", Word: "1994"}
			return s
		}},
		{"sel2", func() *Spec {
			s := q3Spec(t, false)
			s.TextSel = textidx.And{
				textidx.Term{Field: "year", Word: "1994"},
				textidx.Term{Field: "author", Word: "kao"},
			}
			return s
		}},
		{"odd", func() *Spec {
			s := q3Spec(t, false)
			s.Relation.MustInsert(relation.Tuple{value.String("!!!"), value.String("Gravano")})
			s.Relation.MustInsert(relation.Tuple{value.Null(), value.String("Kao")})
			s.Relation.MustInsert(relation.Tuple{value.String("Text Indexing for PWS"), value.String("Kao")})
			s.Relation.MustInsert(relation.Tuple{value.String("PWS"), value.String("Gravano")})
			return s
		}},
	}
}

// transcriptServices are the backends: Mercury's limit with every join
// field short, a small term limit that splits batches and rejects long
// conjuncts, and a short form without the join fields (so batched probes
// go aligned and relational matching is inapplicable).
var transcriptServices = []struct {
	label string
	opts  []texservice.LocalOption
}{
	{"M=70", []texservice.LocalOption{texservice.WithShortFields("title", "author", "year")}},
	{"M=3", []texservice.LocalOption{texservice.WithShortFields("title", "author", "year"), texservice.WithMaxTerms(3)}},
	{"short=year", []texservice.LocalOption{texservice.WithShortFields("year")}},
}

func TestSearchTranscript(t *testing.T) {
	ix := corpus(t)
	var out strings.Builder
	for _, sv := range transcriptServices {
		for _, sp := range transcriptSpecs(t) {
			for _, c := range transcriptConfigs() {
				fmt.Fprintf(&out, "== %s %s %s\n", sv.label, sp.label, c.label)
				local, err := texservice.NewLocal(ix, sv.opts...)
				if err != nil {
					t.Fatal(err)
				}
				svc := transcriptService{Local: local, log: &out}
				spec := sp.spec()
				var tbl *relation.Table
				var st Stats
				if c.method != nil {
					if err := c.method.Applicable(spec, svc); err != nil {
						fmt.Fprintf(&out, "  inapplicable: %v\n", err)
						continue
					}
					var res *Result
					res, err = c.method.Execute(bg, spec, svc)
					if res != nil {
						tbl, st = res.Table, res.Stats
					}
				} else {
					tbl, st, err = ProbeReduce(bg, spec, c.reduce, svc, c.batched)
				}
				if err != nil {
					fmt.Fprintf(&out, "  error: %v\n", err)
					fmt.Fprintf(&out, "  meter %+v\n", local.Meter().Snapshot())
					continue
				}
				h := fnv.New64a()
				for _, row := range tbl.Rows {
					h.Write([]byte(value.KeyOf(row...)))
				}
				fmt.Fprintf(&out, "  rows %d digest %016x probes %d rounds %d\n",
					tbl.Cardinality(), h.Sum64(), st.Probes, st.BatchRounds)
				fmt.Fprintf(&out, "  usage %+v\n", st.Usage)
			}
		}
	}
	golden := filepath.Join("testdata", "transcript.golden")
	if *updateTranscript {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("transcript differs from %s at line %d:\n got: %s\nwant: %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("transcript differs from %s in length: %d lines, want %d", golden, len(gl), len(wl))
	}
}
