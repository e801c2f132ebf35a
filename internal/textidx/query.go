package textidx

import (
	"fmt"
	"strings"
	"unicode"
)

// Expr is a Boolean search expression. The empty field name "" means
// "any field": the term may occur in any indexed field (the paper's
// unscoped searches such as 'information filtering').
type Expr interface {
	// TermCount is the number of basic search terms in the expression,
	// which text systems bound (the paper's M; Mercury allowed 70).
	TermCount() int
	// String renders the expression in the search syntax accepted by Parse.
	String() string
}

// Term matches documents whose field contains the single word (after
// tokenization).
type Term struct {
	Field string
	Word  string
}

// TermCount implements Expr.
func (t Term) TermCount() int { return 1 }

func (t Term) String() string { return renderPred(t.Field, t.Word) }

// Phrase matches documents whose field contains the words adjacently, in
// order.
type Phrase struct {
	Field string
	Words []string
}

// TermCount implements Expr. A phrase of w words costs w basic terms, since
// each word's inverted list must be retrieved.
func (p Phrase) TermCount() int { return len(p.Words) }

func (p Phrase) String() string { return renderPred(p.Field, strings.Join(p.Words, " ")) }

// Prefix matches documents whose field contains any word starting with
// Stem (the paper's truncated search 'filter?').
type Prefix struct {
	Field string
	Stem  string
}

// TermCount implements Expr.
func (p Prefix) TermCount() int { return 1 }

func (p Prefix) String() string { return renderPred(p.Field, p.Stem+"?") }

// Near matches documents whose field contains words A and B within Dist
// token positions of each other (the paper's 'information near10
// filtering').
type Near struct {
	Field string
	A, B  string
	Dist  int
}

// TermCount implements Expr.
func (n Near) TermCount() int { return 2 }

func (n Near) String() string {
	if n.Field == "" {
		return fmt.Sprintf("'%s' near%d '%s'", n.A, n.Dist, n.B)
	}
	return fmt.Sprintf("%s='%s' near%d '%s'", n.Field, n.A, n.Dist, n.B)
}

// And is the conjunction of its children (at least one).
type And []Expr

// TermCount implements Expr.
func (a And) TermCount() int {
	n := 0
	for _, e := range a {
		n += e.TermCount()
	}
	return n
}

func (a And) String() string { return renderNary(a, " and ") }

// Or is the disjunction of its children (at least one).
type Or []Expr

// TermCount implements Expr.
func (o Or) TermCount() int {
	n := 0
	for _, e := range o {
		n += e.TermCount()
	}
	return n
}

func (o Or) String() string { return renderNary(o, " or ") }

// Not matches the complement of its child.
type Not struct{ E Expr }

// TermCount implements Expr.
func (n Not) TermCount() int { return n.E.TermCount() }

func (n Not) String() string { return "not " + parenthesize(n.E) }

func renderNary(es []Expr, sep string) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = parenthesize(e)
	}
	return strings.Join(parts, sep)
}

func parenthesize(e Expr) string {
	switch e.(type) {
	case And, Or:
		return "(" + e.String() + ")"
	default:
		return e.String()
	}
}

func renderPred(field, text string) string {
	if field == "" {
		return "'" + text + "'"
	}
	return field + "='" + text + "'"
}

// MatchesDoc evaluates the expression against a single document by direct
// tokenization, without the index. It is the semantics oracle: index search
// must return exactly the documents for which MatchesDoc is true.
func MatchesDoc(e Expr, d Document) bool {
	switch e := e.(type) {
	case Term:
		return anyField(e.Field, d, func(text string) bool {
			return TermOccursIn(e.Word, text)
		})
	case Phrase:
		return anyField(e.Field, d, func(text string) bool {
			return TermOccursIn(strings.Join(e.Words, " "), text)
		})
	case Prefix:
		stem := normalizeToken(e.Stem)
		return anyField(e.Field, d, func(text string) bool {
			for _, tok := range Tokenize(text) {
				if strings.HasPrefix(tok, stem) {
					return true
				}
			}
			return false
		})
	case Near:
		a, b := normalizeToken(e.A), normalizeToken(e.B)
		return anyField(e.Field, d, func(text string) bool {
			toks := Tokenize(text)
			var posA, posB []int
			for i, t := range toks {
				if t == a {
					posA = append(posA, i)
				}
				if t == b {
					posB = append(posB, i)
				}
			}
			for _, pa := range posA {
				for _, pb := range posB {
					diff := pa - pb
					if diff < 0 {
						diff = -diff
					}
					if diff != 0 && diff <= e.Dist {
						return true
					}
				}
			}
			return false
		})
	case And:
		for _, sub := range e {
			if !MatchesDoc(sub, d) {
				return false
			}
		}
		return true
	case Or:
		for _, sub := range e {
			if MatchesDoc(sub, d) {
				return true
			}
		}
		return false
	case Not:
		return !MatchesDoc(e.E, d)
	default:
		return false
	}
}

func anyField(field string, d Document, f func(string) bool) bool {
	if field != "" {
		return f(d.Field(field))
	}
	for _, text := range d.Fields {
		if f(text) {
			return true
		}
	}
	return false
}

// Validate checks the expression for structural errors (empty
// connectives, negative proximity distance, and leaf words that are not
// exactly one search token).
func Validate(e Expr) error {
	switch e := e.(type) {
	case Term:
		return checkWord("term", e.Word)
	case Phrase:
		if len(e.Words) == 0 {
			return fmt.Errorf("textidx: empty phrase")
		}
		for _, w := range e.Words {
			if err := checkWord("word in phrase", w); err != nil {
				return err
			}
		}
	case Prefix:
		return checkWord("prefix stem", e.Stem)
	case Near:
		if e.Dist <= 0 {
			return fmt.Errorf("textidx: near distance must be positive")
		}
		if err := checkWord("proximity operand", e.A); err != nil {
			return err
		}
		return checkWord("proximity operand", e.B)
	case And:
		if len(e) == 0 {
			return fmt.Errorf("textidx: empty conjunction")
		}
		for _, sub := range e {
			if err := Validate(sub); err != nil {
				return err
			}
		}
	case Or:
		if len(e) == 0 {
			return fmt.Errorf("textidx: empty disjunction")
		}
		for _, sub := range e {
			if err := Validate(sub); err != nil {
				return err
			}
		}
	case Not:
		return Validate(e.E)
	case nil:
		return fmt.Errorf("textidx: nil expression")
	default:
		return fmt.Errorf("textidx: unknown expression type %T", e)
	}
	return nil
}

// checkWord rejects a leaf word that is not exactly one search token,
// that is, unless Tokenize(w) is [normalizeToken(w)]. Eval looks a word
// up in the index as one token, while MatchesDoc tokenizes it, so
// "foo-bar" would find nothing through the index yet match "foo bar" in a
// scan. The trimmed word is one token exactly when every rune of it is a
// letter or a digit, which checkWord tests without allocating.
func checkWord(kind, w string) error {
	w = strings.TrimSpace(w)
	if w == "" {
		return fmt.Errorf("textidx: empty %s", kind)
	}
	for _, r := range w {
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			return fmt.Errorf("textidx: %s %q is not a single search token; build leaves from text with MakeExactPred", kind, w)
		}
	}
	return nil
}

// MakePred builds the appropriate predicate expression for user-written
// search text: a Term for a single word, a Phrase for several words, or a
// Prefix when the single word ends in '?' (truncation).
func MakePred(field, text string) (Expr, error) {
	trimmed := strings.TrimSpace(text)
	if strings.HasSuffix(trimmed, "?") {
		words := Tokenize(strings.TrimSuffix(trimmed, "?"))
		if len(words) == 1 {
			return Prefix{Field: field, Stem: words[0]}, nil
		}
	}
	return MakeExactPred(field, text)
}

// MakeExactPred builds a Term or Phrase with no truncation. It is the
// substitution constructor used by the join methods when a relational
// value is instantiated into a search: its semantics coincide exactly with
// TermOccursIn, so text-system evaluation and SQL-side string matching
// agree.
func MakeExactPred(field, text string) (Expr, error) {
	words := Tokenize(text)
	switch len(words) {
	case 0:
		return nil, fmt.Errorf("textidx: no searchable words in %q", text)
	case 1:
		return Term{Field: field, Word: words[0]}, nil
	default:
		return Phrase{Field: field, Words: words}, nil
	}
}
