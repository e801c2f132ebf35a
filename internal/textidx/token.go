package textidx

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Tokenize splits text into lower-cased word tokens. A token is a maximal
// run of letters and digits; everything else separates tokens. The same
// tokenizer is used at indexing time, at search time, and by the naive
// matcher (the test oracle and the RTP string-matching path), so the three
// agree on what "term t occurs in field f" means.
func Tokenize(text string) []string { return AppendTokens(nil, text) }

// AppendTokens appends Tokenize(text) to dst, so a caller that tokenizes
// many texts one after another can reuse one buffer.
func AppendTokens(dst []string, text string) []string {
	start := -1
	for i, r := range text {
		if isWordRune(r) {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			dst = append(dst, strings.ToLower(text[start:i]))
			start = -1
		}
	}
	if start >= 0 {
		dst = append(dst, strings.ToLower(text[start:]))
	}
	return dst
}

// isWordRune reports whether r belongs to a token: a letter or a digit.
func isWordRune(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) }

// nextToken returns the byte span of the first token of text that starts
// at or after from, or start == len(text) when there is none. It scans as
// AppendTokens does.
func nextToken(text string, from int) (start, end int) {
	start = len(text)
	for i, r := range text[from:] {
		word := isWordRune(r)
		if word && start == len(text) {
			start = from + i
		} else if !word && start < len(text) {
			return start, from + i
		}
	}
	return start, len(text)
}

// PhraseIn reports whether the words, as Tokenize returns them, occur
// adjacently and in order among the tokens of text: it is
// ContainsPhrase(Tokenize(text), words) without building text's token
// list, so it allocates nothing. An empty word list occurs nowhere.
func PhraseIn(text string, words []string) bool {
	if len(words) == 0 {
		return false
	}
	for s, e := nextToken(text, 0); s < len(text); s, e = nextToken(text, e) {
		if !lowerEquals(text[s:e], words[0]) {
			continue
		}
		found, next := true, e
		for _, w := range words[1:] {
			ws, we := nextToken(text, next)
			if ws == len(text) || !lowerEquals(text[ws:we], w) {
				found = false
				break
			}
			next = we
		}
		if found {
			return true
		}
	}
	return false
}

// lowerEquals reports whether strings.ToLower(tok) == w for a token tok.
// A token is letters and digits, so it is valid UTF-8 and ToLower maps it
// rune by rune with unicode.ToLower.
func lowerEquals(tok, w string) bool {
	for _, r := range tok {
		wr, n := utf8.DecodeRuneInString(w)
		if n == 0 || unicode.ToLower(r) != wr {
			return false
		}
		w = w[n:]
	}
	return w == ""
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
// nowhere. It is the definition of "term occurs in field" behind
// TermOccursIn; PhraseIn, which the relational text-processing matcher
// (§3.2) uses on the hits a phrase's first word selects, is tested
// against it.
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
