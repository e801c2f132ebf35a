package textidx

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// TestTokenizeIdempotent: retokenizing the joined tokens yields the same
// tokens (quick).
func TestTokenizeIdempotent(t *testing.T) {
	prop := func(s string) bool {
		once := Tokenize(s)
		twice := Tokenize(strings.Join(once, " "))
		return reflect.DeepEqual(once, twice)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestTokenizeLowercase: every token is already lower-cased (quick).
func TestTokenizeLowercase(t *testing.T) {
	prop := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok != strings.ToLower(tok) {
				return false
			}
			if tok == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestSingleWordOccurrence: a single word occurs in a text exactly when
// it is among the text's tokens (quick).
func TestSingleWordOccurrence(t *testing.T) {
	prop := func(text string, pick uint8) bool {
		toks := Tokenize(text)
		if len(toks) == 0 {
			return !TermOccursIn("anything", text) || TermOccursIn("anything", text) == false
		}
		w := toks[int(pick)%len(toks)]
		return TermOccursIn(w, text)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestPhraseImpliesWords: if a phrase occurs, each of its words occurs
// (quick).
func TestPhraseImpliesWords(t *testing.T) {
	prop := func(text string, a, b string) bool {
		wa, wb := Tokenize(a), Tokenize(b)
		if len(wa) == 0 || len(wb) == 0 {
			return true
		}
		phrase := wa[0] + " " + wb[0]
		if !TermOccursIn(phrase, text) {
			return true
		}
		return TermOccursIn(wa[0], text) && TermOccursIn(wb[0], text)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestSetOpsAlgebra: de Morgan-ish identities over random sorted docid
// sets (quick, with a custom generator through fuzzed byte slices).
func TestSetOpsAlgebra(t *testing.T) {
	mkSet := func(bs []byte) []DocID {
		seen := map[DocID]bool{}
		var out []DocID
		for _, b := range bs {
			id := DocID(b % 40)
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
		// insertion order is random; sort via union with empty
		for i := 1; i < len(out); i++ {
			for j := i; j > 0 && out[j] < out[j-1]; j-- {
				out[j], out[j-1] = out[j-1], out[j]
			}
		}
		return out
	}
	prop := func(ab, bb []byte) bool {
		a, b := mkSet(ab), mkSet(bb)
		// |A∩B| + |A∪B| = |A| + |B|
		if len(intersectIDs(a, b))+len(unionIDs(a, b)) != len(a)+len(b) {
			return false
		}
		// A\B ∪ (A∩B) = A
		if !sameIDs(unionIDs(diffIDs(a, b), intersectIDs(a, b)), a) {
			return false
		}
		// Commutativity.
		if !sameIDs(intersectIDs(a, b), intersectIDs(b, a)) {
			return false
		}
		if !sameIDs(unionIDs(a, b), unionIDs(b, a)) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPhraseInMatchesTermOccursIn: PhraseIn, which scans the text without
// building its token list, agrees with TermOccursIn on random texts of
// mixed-case ASCII and non-ASCII words (final sigma, dotted capital I,
// the Kelvin sign, ß), digits, punctuation and invalid UTF-8, for terms
// cut from the text's own tokens and re-cased, and for random terms.
func TestPhraseInMatchesTermOccursIn(t *testing.T) {
	rng := rand.New(rand.NewSource(1995))
	vocab := []string{"belief", "Update", "UPDATE", "x86", "1994", "café", "CAFÉ", "Straße",
		"ΣΟΦΙΑ", "σοφια", "σοφιας", "İstanbul", "istanbul", "Kelvin", "kelvin", "naïve", "a"}
	seps := []string{" ", ", ", "-", "!? ", " — ", "/", "\xff", " "}
	text := func(n int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			if i > 0 {
				sb.WriteString(seps[rng.Intn(len(seps))])
			}
			sb.WriteString(vocab[rng.Intn(len(vocab))])
		}
		return sb.String()
	}
	matched := 0
	for trial := 0; trial < 20000; trial++ {
		field := text(rng.Intn(8))
		term := text(1 + rng.Intn(3))
		if toks := Tokenize(field); len(toks) > 0 && rng.Intn(2) == 0 {
			i := rng.Intn(len(toks))
			j := i + 1 + rng.Intn(len(toks)-i)
			term = strings.Join(toks[i:j], seps[rng.Intn(len(seps))])
			if rng.Intn(2) == 0 {
				term = strings.ToUpper(term)
			}
		}
		want := TermOccursIn(term, field)
		if got := PhraseIn(field, Tokenize(term)); got != want {
			t.Fatalf("PhraseIn(%q, Tokenize(%q)) = %v, TermOccursIn = %v", field, term, got, want)
		}
		if want {
			matched++
		}
	}
	if matched < 5000 {
		t.Fatalf("only %d of 20000 terms occurred; the generator is too sparse", matched)
	}
	prop := func(field, term string) bool { return PhraseIn(field, Tokenize(term)) == TermOccursIn(term, field) }
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
