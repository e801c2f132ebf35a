package textidx

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseSimple(t *testing.T) {
	e, err := Parse("TI='belief update' and AU='radhika'", MercuryAliases)
	if err != nil {
		t.Fatal(err)
	}
	want := And{
		Phrase{Field: "title", Words: []string{"belief", "update"}},
		Term{Field: "author", Word: "radhika"},
	}
	if !reflect.DeepEqual(e, Expr(want)) {
		t.Fatalf("parsed %#v", e)
	}
}

func TestParseSemiJoinShape(t *testing.T) {
	// The paper's Example 3.3 semi-join query.
	e, err := Parse("TI=text and (AU=Gravano or AU=Kao)", MercuryAliases)
	if err != nil {
		t.Fatal(err)
	}
	and, ok := e.(And)
	if !ok || len(and) != 2 {
		t.Fatalf("expected 2-ary And, got %#v", e)
	}
	or, ok := and[1].(Or)
	if !ok || len(or) != 2 {
		t.Fatalf("expected 2-ary Or, got %#v", and[1])
	}
	if or[0].(Term).Word != "gravano" && or[0].(Term).Word != "Gravano" {
		t.Fatalf("or[0] = %#v", or[0])
	}
}

func TestParsePrecedence(t *testing.T) {
	// and binds tighter than or.
	e, err := Parse("a='x' or b='y' and c='z'", nil)
	if err != nil {
		t.Fatal(err)
	}
	or, ok := e.(Or)
	if !ok || len(or) != 2 {
		t.Fatalf("top is %#v", e)
	}
	if _, ok := or[1].(And); !ok {
		t.Fatalf("right of or is %#v", or[1])
	}
}

func TestParseParensAndNot(t *testing.T) {
	e, err := Parse("not (a='x' or a='y')", nil)
	if err != nil {
		t.Fatal(err)
	}
	n, ok := e.(Not)
	if !ok {
		t.Fatalf("top is %#v", e)
	}
	if _, ok := n.E.(Or); !ok {
		t.Fatalf("inner is %#v", n.E)
	}
}

func TestParseUnscopedAndPrefix(t *testing.T) {
	e, err := Parse("'information filtering'", nil)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := e.(Phrase)
	if !ok || p.Field != "" {
		t.Fatalf("unscoped phrase → %#v", e)
	}
	e, err = Parse("AU='filter?'", MercuryAliases)
	if err != nil {
		t.Fatal(err)
	}
	if pre, ok := e.(Prefix); !ok || pre.Field != "author" || pre.Stem != "filter" {
		t.Fatalf("truncation → %#v", e)
	}
}

func TestParseNear(t *testing.T) {
	e, err := Parse("'information' near10 'filtering'", nil)
	if err != nil {
		t.Fatal(err)
	}
	n, ok := e.(Near)
	if !ok || n.Dist != 10 || n.A != "information" || n.B != "filtering" {
		t.Fatalf("near → %#v", e)
	}
	// Field-scoped proximity takes the left operand's field.
	e, err = Parse("TI='information' near5 'filtering'", MercuryAliases)
	if err != nil {
		t.Fatal(err)
	}
	if n := e.(Near); n.Field != "title" || n.Dist != 5 {
		t.Fatalf("scoped near → %#v", e)
	}
	// "near" with no digits means distance 1.
	e, err = Parse("'a' near 'b'", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := e.(Near); n.Dist != 1 {
		t.Fatalf("bare near → %#v", e)
	}
}

func TestParseNearErrors(t *testing.T) {
	if _, err := Parse("'a b' near3 'c'", nil); err == nil {
		t.Fatal("phrase operand to near accepted")
	}
	if _, err := Parse("TI='a' near3 AU='b'", MercuryAliases); err == nil {
		t.Fatal("cross-field near accepted")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"TI=",
		"TI'x'",
		"(a='x'",
		"a='x' b='y'",
		"'unterminated",
		"a='x' and",
		"and a='x'",
		"a='x' @",
		"()",
	}
	for _, q := range bad {
		if _, err := Parse(q, nil); err == nil {
			t.Errorf("Parse(%q) succeeded", q)
		}
	}
}

func TestParseIdentStartingWithNear(t *testing.T) {
	// An identifier like "nearby" must lex as an identifier, not a
	// proximity operator.
	e, err := Parse("nearby='update'", nil)
	if err != nil {
		t.Fatal(err)
	}
	if term, ok := e.(Term); !ok || term.Field != "nearby" {
		t.Fatalf("nearby → %#v", e)
	}
}

func TestParseAliasResolution(t *testing.T) {
	e, err := Parse("ti='x'", MercuryAliases)
	if err != nil {
		t.Fatal(err)
	}
	if e.(Term).Field != "title" {
		t.Fatalf("lower-case alias not resolved: %#v", e)
	}
	e, err = Parse("unknownfield='x'", MercuryAliases)
	if err != nil {
		t.Fatal(err)
	}
	if e.(Term).Field != "unknownfield" {
		t.Fatalf("unaliased field renamed: %#v", e)
	}
}

func TestRoundTripThroughString(t *testing.T) {
	queries := []string{
		"TI='belief update' and (AU='gravano' or AU='kao')",
		"not AU='smith' and TI='filter?'",
		"'information' near10 'filtering'",
		"a='x' or (b='y' and not c='z')",
	}
	for _, q := range queries {
		e1, err := Parse(q, MercuryAliases)
		if err != nil {
			t.Fatalf("Parse(%q): %v", q, err)
		}
		e2, err := Parse(e1.String(), nil)
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", e1.String(), err)
		}
		if !reflect.DeepEqual(e1, e2) {
			t.Errorf("round trip changed %q:\n  first : %#v\n  second: %#v", q, e1, e2)
		}
	}
}

func TestExprStrings(t *testing.T) {
	e := And{
		Phrase{Field: "title", Words: []string{"belief", "update"}},
		Or{Term{Field: "author", Word: "kao"}, Not{E: Prefix{Field: "author", Stem: "gr"}}},
		Near{Field: "title", A: "x", B: "y", Dist: 4},
	}
	s := e.String()
	for _, want := range []string{"title='belief update'", "author='kao'", "not author='gr?'", "near4"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering %q missing %q", s, want)
		}
	}
	unscoped := Near{A: "x", B: "y", Dist: 2}
	if unscoped.String() != "'x' near2 'y'" {
		t.Errorf("unscoped near rendering = %q", unscoped.String())
	}
}

// parseHangInputs are non-ASCII bytes outside quotes: the lexer used to
// read such a byte as a Latin-1 letter, enter the identifier branch, take
// zero bytes and loop forever appending empty tokens.
var parseHangInputs = []string{"é", "\xcc:pws", "\xff", "TI='x' and é='y'", "a\u00a0='x'", "\xa0"}

// TestParseRejectsNonASCIIPromptly: every such input is an error, and
// the error comes back well inside a deadline instead of never.
func TestParseRejectsNonASCIIPromptly(t *testing.T) {
	for _, q := range parseHangInputs {
		done := make(chan error, 1)
		go func() {
			_, err := Parse(q, nil)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("Parse(%q) succeeded", q)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("Parse(%q) did not return within 2s", q)
		}
	}
	// Quoted strings still take any bytes.
	if _, err := Parse("'café'", nil); err != nil {
		t.Fatalf("quoted non-ASCII rejected: %v", err)
	}
}

// FuzzParse: Parse terminates on any input, and whatever it accepts
// renders back (Expr.String) to text that parses to the same expression —
// the remote client ships e.String() for the server to re-parse.
func FuzzParse(f *testing.F) {
	for _, q := range append([]string{
		"TI='belief update' and (AU='gravano' or AU='kao')",
		"not AU='smith' and TI='filter?'",
		"'information' near10 'filtering'",
		"a='x' or (b='y' and not c='z')",
		"TI=text and (AU=Gravano or AU=Kao)",
		"nearby='update' and 'a' near 'b'",
	}, parseHangInputs...) {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, q string) {
		e, err := Parse(q, MercuryAliases)
		if err != nil {
			return
		}
		again, err := Parse(e.String(), nil)
		if err != nil {
			t.Fatalf("Parse(%q) = %q, which does not re-parse: %v", q, e.String(), err)
		}
		if !reflect.DeepEqual(e, again) {
			t.Fatalf("round trip of %q changed the expression:\n  first : %#v\n  second: %#v", q, e, again)
		}
	})
}
