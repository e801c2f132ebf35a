package textidx

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Parse parses a Boolean search expression in the syntax of the paper's
// examples, e.g.:
//
//	TI='belief update' and (AU='gravano' or AU='kao')
//	'information' near10 'filtering' and not AU='smith'
//	TI='filter?'
//
// aliases maps field abbreviations (e.g. "TI") to indexed field names
// (e.g. "title"); unaliased identifiers are used verbatim. Pass nil for no
// aliasing. A quoted string without a field applies to any field.
func Parse(query string, aliases map[string]string) (Expr, error) {
	toks, err := lexSearch(query)
	if err != nil {
		return nil, err
	}
	p := &searchParser{toks: toks, aliases: aliases}
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if !p.atEnd() {
		return nil, fmt.Errorf("textidx: unexpected %q at end of search", p.peek().text)
	}
	if err := Validate(e); err != nil {
		return nil, err
	}
	return e, nil
}

type searchTokKind uint8

const (
	tokEOF searchTokKind = iota
	tokIdent
	tokString
	tokEq
	tokLParen
	tokRParen
	tokAnd
	tokOr
	tokNot
	tokNear // carries dist
)

type searchTok struct {
	kind searchTokKind
	text string
	dist int // for tokNear
}

func lexSearch(s string) ([]searchTok, error) {
	var toks []searchTok
	i := 0
	for i < len(s) {
		// Outside quotes the syntax is ASCII: a byte ≥ 0x80 is part of a
		// multi-byte rune (or not UTF-8 at all), never a letter or a space
		// on its own, so it falls through to "unexpected character".
		r := rune(s[i])
		switch {
		case r < utf8.RuneSelf && unicode.IsSpace(r):
			i++
		case r == '(':
			toks = append(toks, searchTok{kind: tokLParen, text: "("})
			i++
		case r == ')':
			toks = append(toks, searchTok{kind: tokRParen, text: ")"})
			i++
		case r == '=':
			toks = append(toks, searchTok{kind: tokEq, text: "="})
			i++
		case r == '\'':
			j := i + 1
			for j < len(s) && s[j] != '\'' {
				j++
			}
			if j >= len(s) {
				return nil, fmt.Errorf("textidx: unterminated string starting at %d", i)
			}
			toks = append(toks, searchTok{kind: tokString, text: s[i+1 : j]})
			i = j + 1
		case isWordByte(s[i]):
			j := i
			for j < len(s) && (isWordByte(s[j]) || s[j] == '?') {
				j++
			}
			word := s[i:j]
			lower := strings.ToLower(word)
			switch {
			case lower == "and":
				toks = append(toks, searchTok{kind: tokAnd, text: word})
			case lower == "or":
				toks = append(toks, searchTok{kind: tokOr, text: word})
			case lower == "not":
				toks = append(toks, searchTok{kind: tokNot, text: word})
			case strings.HasPrefix(lower, "near"):
				dist := 1
				if rest := lower[len("near"):]; rest != "" {
					d, err := strconv.Atoi(rest)
					if err != nil {
						toks = append(toks, searchTok{kind: tokIdent, text: word})
						i = j
						continue
					}
					dist = d
				}
				toks = append(toks, searchTok{kind: tokNear, text: word, dist: dist})
			default:
				toks = append(toks, searchTok{kind: tokIdent, text: word})
			}
			i = j
		default:
			r, _ = utf8.DecodeRuneInString(s[i:])
			return nil, fmt.Errorf("textidx: unexpected character %q at %d", r, i)
		}
	}
	toks = append(toks, searchTok{kind: tokEOF})
	return toks, nil
}

func isWordByte(b byte) bool {
	return b == '_' || ('a' <= b && b <= 'z') || ('A' <= b && b <= 'Z') || ('0' <= b && b <= '9')
}

type searchParser struct {
	toks    []searchTok
	pos     int
	aliases map[string]string
}

func (p *searchParser) peek() searchTok { return p.toks[p.pos] }

func (p *searchParser) next() searchTok {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *searchParser) atEnd() bool { return p.peek().kind == tokEOF }

func (p *searchParser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	parts := []Expr{left}
	for p.peek().kind == tokOr {
		p.next()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		parts = append(parts, right)
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	return Or(parts), nil
}

func (p *searchParser) parseAnd() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	parts := []Expr{left}
	for p.peek().kind == tokAnd {
		p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		parts = append(parts, right)
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	return And(parts), nil
}

func (p *searchParser) parseUnary() (Expr, error) {
	switch p.peek().kind {
	case tokNot:
		p.next()
		sub, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Not{E: sub}, nil
	case tokLParen:
		p.next()
		sub, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.peek().kind != tokRParen {
			return nil, fmt.Errorf("textidx: expected ')', got %q", p.peek().text)
		}
		p.next()
		return sub, nil
	default:
		return p.parseAtom()
	}
}

// parseAtom parses a predicate optionally followed by a proximity operator.
func (p *searchParser) parseAtom() (Expr, error) {
	left, err := p.parsePred()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokNear {
		return left, nil
	}
	nearTok := p.next()
	right, err := p.parsePred()
	if err != nil {
		return nil, err
	}
	lt, lok := left.(Term)
	rt, rok := right.(Term)
	if !lok || !rok {
		return nil, fmt.Errorf("textidx: proximity requires single-word operands")
	}
	field := lt.Field
	if field == "" {
		field = rt.Field
	} else if rt.Field != "" && rt.Field != field {
		return nil, fmt.Errorf("textidx: proximity operands must be in the same field")
	}
	return Near{Field: field, A: lt.Word, B: rt.Word, Dist: nearTok.dist}, nil
}

// parsePred parses [field =] 'text'.
func (p *searchParser) parsePred() (Expr, error) {
	field := ""
	if p.peek().kind == tokIdent {
		ident := p.next().text
		if p.peek().kind != tokEq {
			return nil, fmt.Errorf("textidx: expected '=' after field %q", ident)
		}
		p.next()
		field = p.resolveField(ident)
	}
	switch p.peek().kind {
	case tokString:
		return MakePred(field, p.next().text)
	case tokIdent:
		// Unquoted single word, e.g. TI=text (used in the paper's Example 3.3).
		return MakePred(field, p.next().text)
	default:
		return nil, fmt.Errorf("textidx: expected search term, got %q", p.peek().text)
	}
}

func (p *searchParser) resolveField(ident string) string {
	if p.aliases != nil {
		if f, ok := p.aliases[ident]; ok {
			return f
		}
		if f, ok := p.aliases[strings.ToUpper(ident)]; ok {
			return f
		}
	}
	return strings.ToLower(ident)
}

// MercuryAliases is the field alias map of the paper's examples, matching
// the bibliographic CSTR schema.
var MercuryAliases = map[string]string{
	"TI": "title",
	"AU": "author",
	"AB": "abstract",
	"YR": "year",
}
