package textidx

import (
	"strings"
	"unicode"
)

// Tokenize splits text into lower-cased word tokens. A token is a maximal
// run of letters and digits; everything else separates tokens. The same
// tokenizer is used at indexing time, at search time, and by the naive
// matcher (the test oracle and the RTP string-matching path), so the three
// agree on what "term t occurs in field f" means.
func Tokenize(text string) []string {
	var out []string
	start := -1
	flush := func(end int) {
		if start >= 0 {
			out = append(out, strings.ToLower(text[start:end]))
			start = -1
		}
	}
	for i, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		flush(i)
	}
	flush(len(text))
	return out
}

// normalizeToken lower-cases a single word the same way Tokenize would.
// Multi-word input is not split; use Tokenize for that.
func normalizeToken(w string) string { return strings.ToLower(strings.TrimSpace(w)) }

// TermOccursIn reports whether the (single-word or phrase) term occurs in
// the field text, using exactly the index's tokenization and adjacency
// semantics. It is the ground-truth matcher of the naive full-scan join
// and of the property tests that compare index search results, and the
// relational matcher's results, against a full scan.
func TermOccursIn(term, fieldText string) bool {
	return ContainsPhrase(Tokenize(fieldText), Tokenize(term))
}

// ContainsPhrase reports whether the tokenized words occur adjacently, in
// order, in the tokenized field: membership for one word, adjacency for a
// phrase. An empty word list (a term with no searchable words) occurs
// nowhere. It is the one definition of "term occurs in field" behind
// TermOccursIn and the relational text-processing matcher (§3.2), which
// tokenizes each field once and reuses the tokens across many terms.
func ContainsPhrase(toks, words []string) bool {
	if len(words) == 0 {
		return false
	}
outer:
	for i := 0; i+len(words) <= len(toks); i++ {
		for j, w := range words {
			if toks[i+j] != w {
				continue outer
			}
		}
		return true
	}
	return false
}
