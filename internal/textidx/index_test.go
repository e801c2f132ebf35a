package textidx

import (
	"reflect"
	"strings"
	"testing"
)

func sampleIndex(t *testing.T) *Index {
	t.Helper()
	ix := NewIndex()
	docs := []Document{
		{ExtID: "d0", Fields: map[string]string{
			"title":    "Belief Update and Revision",
			"author":   "Radhika Kumar",
			"abstract": "We study belief update in knowledge bases.",
		}},
		{ExtID: "d1", Fields: map[string]string{
			"title":    "Information Filtering Systems",
			"author":   "Gravano Garcia",
			"abstract": "Filtering of information streams for text retrieval.",
		}},
		{ExtID: "d2", Fields: map[string]string{
			"title":    "Text Retrieval with Inverted Indexes",
			"author":   "Kao",
			"abstract": "Inverted indexes make Boolean text search fast.",
		}},
		{ExtID: "d3", Fields: map[string]string{
			"title":    "Update Propagation in Distributed Systems",
			"author":   "Garcia Molina",
			"abstract": "Distributed update protocols and information flow.",
		}},
	}
	for _, d := range docs {
		ix.MustAdd(d)
	}
	ix.Freeze()
	return ix
}

func ids(t *testing.T, ix *Index, e Expr) []DocID {
	t.Helper()
	res, err := ix.Eval(e)
	if err != nil {
		t.Fatalf("Eval(%s): %v", e, err)
	}
	return res.Docs
}

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Belief Update", []string{"belief", "update"}},
		{"  hello,  world! ", []string{"hello", "world"}},
		{"", nil},
		{"---", nil},
		{"foo-bar_baz", []string{"foo", "bar", "baz"}},
		{"IPv6 2020", []string{"ipv6", "2020"}},
	}
	for _, c := range cases {
		if got := Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTermOccursIn(t *testing.T) {
	cases := []struct {
		term, text string
		want       bool
	}{
		{"belief", "Belief Update and Revision", true},
		{"BELIEF", "belief update", true},
		{"belie", "belief update", false}, // whole-token, not substring
		{"belief update", "on Belief Update today", true},
		{"update belief", "on Belief Update today", false}, // order matters
		{"", "anything", false},
		{"a b", "a c b", false}, // adjacency matters
		{"a b", "a a b", true},  // a false start does not hide the phrase
		{"a b c", "x a b", false},
		{"b", "", false},
		{"--", "-- anything --", false}, // no searchable words
	}
	for _, c := range cases {
		if got := TermOccursIn(c.term, c.text); got != c.want {
			t.Errorf("TermOccursIn(%q, %q) = %v, want %v", c.term, c.text, got, c.want)
		}
	}
}

func TestAddAfterFreezeFails(t *testing.T) {
	ix := NewIndex()
	ix.Freeze()
	if _, err := ix.Add(Document{}); err == nil {
		t.Fatal("Add after Freeze accepted")
	}
	if !ix.Frozen() {
		t.Fatal("Frozen() false after Freeze")
	}
}

func TestEvalRequiresFrozen(t *testing.T) {
	ix := NewIndex()
	ix.MustAdd(Document{Fields: map[string]string{"title": "x"}})
	if _, err := ix.Eval(Term{Field: "title", Word: "x"}); err == nil {
		t.Fatal("Eval on unfrozen index accepted")
	}
}

func TestDocAccess(t *testing.T) {
	ix := sampleIndex(t)
	d, err := ix.Doc(1)
	if err != nil || d.ExtID != "d1" {
		t.Fatalf("Doc(1) = %v, %v", d, err)
	}
	if _, err := ix.Doc(-1); err == nil {
		t.Fatal("negative DocID accepted")
	}
	if _, err := ix.Doc(DocID(ix.NumDocs())); err == nil {
		t.Fatal("out-of-range DocID accepted")
	}
	if ix.NumDocs() != 4 {
		t.Fatalf("NumDocs = %d", ix.NumDocs())
	}
}

func TestTermSearch(t *testing.T) {
	ix := sampleIndex(t)
	got := ids(t, ix, Term{Field: "title", Word: "update"})
	if !reflect.DeepEqual(got, []DocID{0, 3}) {
		t.Fatalf("title=update → %v", got)
	}
	// Case-insensitive at both index and search time.
	got = ids(t, ix, Term{Field: "title", Word: "UPDATE"})
	if !reflect.DeepEqual(got, []DocID{0, 3}) {
		t.Fatalf("title=UPDATE → %v", got)
	}
	// Unscoped search hits any field.
	got = ids(t, ix, Term{Word: "garcia"})
	if !reflect.DeepEqual(got, []DocID{1, 3}) {
		t.Fatalf("any=garcia → %v", got)
	}
	// Missing term → empty.
	if got := ids(t, ix, Term{Field: "title", Word: "zebra"}); len(got) != 0 {
		t.Fatalf("title=zebra → %v", got)
	}
	// Missing field → empty.
	if got := ids(t, ix, Term{Field: "nosuch", Word: "update"}); len(got) != 0 {
		t.Fatalf("nosuch=update → %v", got)
	}
}

func TestPhraseSearch(t *testing.T) {
	ix := sampleIndex(t)
	got := ids(t, ix, Phrase{Field: "title", Words: []string{"belief", "update"}})
	if !reflect.DeepEqual(got, []DocID{0}) {
		t.Fatalf("phrase 'belief update' → %v", got)
	}
	// Reversed order must not match.
	if got := ids(t, ix, Phrase{Field: "title", Words: []string{"update", "belief"}}); len(got) != 0 {
		t.Fatalf("phrase 'update belief' → %v", got)
	}
	// Both words present but not adjacent.
	ix2 := NewIndex()
	ix2.MustAdd(Document{Fields: map[string]string{"t": "belief in rapid update"}})
	ix2.Freeze()
	if got, _ := ix2.Eval(Phrase{Field: "t", Words: []string{"belief", "update"}}); len(got.Docs) != 0 {
		t.Fatalf("non-adjacent phrase matched: %v", got.Docs)
	}
	// Three-word phrase.
	got = ids(t, ix, Phrase{Field: "abstract", Words: []string{"boolean", "text", "search"}})
	if !reflect.DeepEqual(got, []DocID{2}) {
		t.Fatalf("3-word phrase → %v", got)
	}
}

func TestPrefixSearch(t *testing.T) {
	ix := sampleIndex(t)
	got := ids(t, ix, Prefix{Field: "abstract", Stem: "filter"})
	if !reflect.DeepEqual(got, []DocID{1}) {
		t.Fatalf("abstract=filter? → %v", got)
	}
	got = ids(t, ix, Prefix{Field: "title", Stem: "in"})
	// "information" (d1), "inverted" (d2), "in" (d3)
	if !reflect.DeepEqual(got, []DocID{1, 2, 3}) {
		t.Fatalf("title=in? → %v", got)
	}
}

func TestNearSearch(t *testing.T) {
	ix := NewIndex()
	ix.MustAdd(Document{Fields: map[string]string{"t": "information retrieval and filtering"}}) // dist 3
	ix.MustAdd(Document{Fields: map[string]string{"t": "information filtering"}})               // dist 1
	ix.MustAdd(Document{Fields: map[string]string{"t": "filtering the flood of online information"}})
	ix.MustAdd(Document{Fields: map[string]string{"t": "information only"}})
	ix.Freeze()

	res, err := ix.Eval(Near{Field: "t", A: "information", B: "filtering", Dist: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Docs, []DocID{1}) {
		t.Fatalf("near1 → %v", res.Docs)
	}
	res, err = ix.Eval(Near{Field: "t", A: "information", B: "filtering", Dist: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Docs, []DocID{0, 1, 2}) {
		t.Fatalf("near5 → %v", res.Docs)
	}
}

func TestBooleanConnectives(t *testing.T) {
	ix := sampleIndex(t)
	and := And{
		Term{Field: "title", Word: "update"},
		Term{Field: "author", Word: "garcia"},
	}
	if got := ids(t, ix, and); !reflect.DeepEqual(got, []DocID{3}) {
		t.Fatalf("and → %v", got)
	}
	or := Or{
		Term{Field: "author", Word: "kao"},
		Term{Field: "author", Word: "kumar"},
	}
	if got := ids(t, ix, or); !reflect.DeepEqual(got, []DocID{0, 2}) {
		t.Fatalf("or → %v", got)
	}
	not := And{
		Term{Field: "title", Word: "update"},
		Not{E: Term{Field: "author", Word: "garcia"}},
	}
	if got := ids(t, ix, not); !reflect.DeepEqual(got, []DocID{0}) {
		t.Fatalf("and-not → %v", got)
	}
}

func TestPostingsAccounting(t *testing.T) {
	ix := sampleIndex(t)
	// "update" appears in titles of d0 and d3 → list length 2.
	res, err := ix.Eval(Term{Field: "title", Word: "update"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Postings != 2 {
		t.Fatalf("postings for title=update = %d, want 2", res.Postings)
	}
	// Conjunction charges both lists.
	res, err = ix.Eval(And{
		Term{Field: "title", Word: "update"},  // 2 postings
		Term{Field: "author", Word: "garcia"}, // 2 postings
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Postings != 4 {
		t.Fatalf("postings for conjunction = %d, want 4", res.Postings)
	}
	// NOT charges a pass over the universe.
	res, err = ix.Eval(Not{E: Term{Field: "title", Word: "update"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Postings != 2+ix.NumDocs() {
		t.Fatalf("postings for not = %d, want %d", res.Postings, 2+ix.NumDocs())
	}
}

func TestDocFrequencyAndVocabulary(t *testing.T) {
	ix := sampleIndex(t)
	if df := ix.DocFrequency("title", "update"); df != 2 {
		t.Fatalf("DocFrequency(title, update) = %d", df)
	}
	if df := ix.DocFrequency("title", "UPDATE"); df != 2 {
		t.Fatalf("DocFrequency is case-sensitive")
	}
	if df := ix.DocFrequency("title", "zebra"); df != 0 {
		t.Fatalf("DocFrequency for absent term = %d", df)
	}
	if df := ix.DocFrequency("nosuch", "update"); df != 0 {
		t.Fatalf("DocFrequency for absent field = %d", df)
	}
	fields := ix.FieldNames()
	if !reflect.DeepEqual(fields, []string{"abstract", "author", "title"}) {
		t.Fatalf("FieldNames = %v", fields)
	}
}

func TestValidate(t *testing.T) {
	bad := []Expr{
		nil,
		Term{Field: "t", Word: "  "},
		Phrase{Field: "t"},
		Phrase{Field: "t", Words: []string{"a", " "}},
		Prefix{Field: "t", Stem: ""},
		Near{Field: "t", A: "a", B: "b", Dist: 0},
		Near{Field: "t", A: "", B: "b", Dist: 2},
		And{},
		Or{},
		And{Term{Field: "t", Word: ""}},
		Or{Term{Field: "t", Word: ""}},
		Not{E: Term{Field: "t", Word: ""}},
		// Leaf words that are not exactly one search token: Eval would look
		// up "foo-bar" literally while MatchesDoc matches "foo bar".
		Term{Field: "title", Word: "foo-bar"},
		Phrase{Field: "title", Words: []string{"foo bar", "baz"}},
		Prefix{Field: "t", Stem: "fil ter"},
		Near{Field: "t", A: "a.b", B: "c", Dist: 2},
		Near{Field: "t", A: "a", B: "---", Dist: 2},
		And{Term{Field: "t", Word: "a"}, Not{E: Term{Field: "t", Word: "x,y"}}},
	}
	for _, e := range bad {
		if err := Validate(e); err == nil {
			t.Errorf("Validate accepted %#v", e)
		}
	}
	good := And{
		Term{Field: "t", Word: "a"},
		Or{Phrase{Field: "t", Words: []string{"b", "c"}}, Prefix{Field: "t", Stem: "d"}},
		Not{E: Near{Field: "t", A: "x", B: "y", Dist: 3}},
	}
	if err := Validate(good); err != nil {
		t.Errorf("Validate rejected valid expr: %v", err)
	}
	if err := Validate(Term{Field: "t", Word: "foo-bar"}); err == nil || !strings.Contains(err.Error(), "MakeExactPred") {
		t.Errorf("multi-token word error = %v, want it to name MakeExactPred", err)
	}
	// A word passes exactly when it tokenizes to itself, normalized.
	for _, w := range []string{"a", " Foo ", "café", "IPv6", "2020", "foo-bar", "foo bar", "x_y", "é\u00a0", "\xff", "a\xffb", "---", "ǅ"} {
		toks := Tokenize(w)
		single := len(toks) == 1 && toks[0] == normalizeToken(w)
		if got := Validate(Term{Field: "t", Word: w}) == nil; got != single {
			t.Errorf("Validate(Term %q) accepted = %v, but Tokenize gives %q", w, got, toks)
		}
	}
}

func TestTermCount(t *testing.T) {
	e := And{
		Phrase{Field: "title", Words: []string{"belief", "update"}}, // 2
		Or{
			Term{Field: "author", Word: "a"},          // 1
			Prefix{Field: "author", Stem: "b"},        // 1
			Near{Field: "t", A: "x", B: "y", Dist: 2}, // 2
		},
		Not{E: Term{Field: "t", Word: "z"}}, // 1
	}
	if got := e.TermCount(); got != 7 {
		t.Fatalf("TermCount = %d, want 7", got)
	}
}

func TestMakePred(t *testing.T) {
	e, err := MakePred("title", "belief")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.(Term); !ok {
		t.Fatalf("single word → %T", e)
	}
	e, err = MakePred("title", "belief update")
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := e.(Phrase); !ok || len(p.Words) != 2 {
		t.Fatalf("two words → %#v", e)
	}
	e, err = MakePred("title", "filter?")
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := e.(Prefix); !ok || p.Stem != "filter" {
		t.Fatalf("truncated word → %#v", e)
	}
	if _, err := MakePred("title", " ?!"); err == nil {
		t.Fatal("unsearchable text accepted")
	}
}
