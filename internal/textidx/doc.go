// Package textidx implements a Boolean text retrieval system of the kind
// the paper integrates with (CMU Project Mercury's engine): a collection of
// documents with named text fields, a positional inverted index, and a
// Boolean search language with field-scoped terms, phrases, truncated words
// ('filter?'), proximity ('nearK'), and the connectives and/or/not.
//
// Searching follows the paper's model of inversion-based systems: the
// inverted list of every term mentioned by the search is retrieved and the
// result is computed by set operations over sorted docid lists, so
// processing cost is linear in the total number of postings touched. That
// posting count is reported with every evaluation so the service layer can
// charge the paper's c_p cost constant.
package textidx

import (
	"fmt"
	"sort"
	"strings"
)

// DocID identifies a document within one index. IDs are dense: the i-th
// added document has DocID i.
type DocID int32

// Document is a set of named text fields plus an external identifier.
type Document struct {
	// ExtID is the externally visible identifier (e.g. "CSTR-124").
	ExtID string
	// Fields maps a field name (e.g. "title", "author") to its text.
	Fields map[string]string
}

// Field returns the named field's text ("" when absent).
func (d Document) Field(name string) string { return d.Fields[name] }

// postingList is the inverted list of one (field, term) pair: the sorted
// docids of documents whose field contains the term, with the token
// positions of each occurrence (for phrase and proximity search).
type postingList struct {
	docs      []DocID
	positions [][]int32 // parallel to docs
}

// add records an occurrence of the term at position pos in doc id.
// Documents are always indexed in increasing id order, so appends keep the
// list sorted.
func (p *postingList) add(id DocID, pos int32) {
	n := len(p.docs)
	if n > 0 && p.docs[n-1] == id {
		p.positions[n-1] = append(p.positions[n-1], pos)
		return
	}
	p.docs = append(p.docs, id)
	p.positions = append(p.positions, []int32{pos})
}

// fieldIndex holds all inverted lists of one field.
type fieldIndex struct {
	terms map[string]*postingList
	// sortedTerms is built by Freeze for truncation (prefix) queries.
	sortedTerms []string
}

// Index is an in-memory positional inverted index over a document
// collection. Build it with Add and then Freeze; a frozen index is
// read-only and safe for concurrent searches.
type Index struct {
	docs   []Document
	fields map[string]*fieldIndex
	frozen bool
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{fields: map[string]*fieldIndex{}}
}

// Add indexes a document and returns its DocID. Add fails after Freeze.
func (ix *Index) Add(d Document) (DocID, error) {
	if ix.frozen {
		return 0, fmt.Errorf("textidx: index is frozen")
	}
	id := DocID(len(ix.docs))
	ix.docs = append(ix.docs, d)
	for field, text := range d.Fields {
		fi := ix.fields[field]
		if fi == nil {
			fi = &fieldIndex{terms: map[string]*postingList{}}
			ix.fields[field] = fi
		}
		for pos, tok := range Tokenize(text) {
			pl := fi.terms[tok]
			if pl == nil {
				pl = &postingList{}
				fi.terms[tok] = pl
			}
			pl.add(id, int32(pos))
		}
	}
	return id, nil
}

// MustAdd is Add that panics on error.
func (ix *Index) MustAdd(d Document) DocID {
	id, err := ix.Add(d)
	if err != nil {
		panic(err)
	}
	return id
}

// Freeze finalises the index: prefix-search structures are built and
// further Adds are rejected.
func (ix *Index) Freeze() {
	if ix.frozen {
		return
	}
	for _, fi := range ix.fields {
		fi.sortedTerms = make([]string, 0, len(fi.terms))
		for t := range fi.terms {
			fi.sortedTerms = append(fi.sortedTerms, t)
		}
		sort.Strings(fi.sortedTerms)
	}
	ix.frozen = true
}

// Frozen reports whether Freeze has been called.
func (ix *Index) Frozen() bool { return ix.frozen }

// NumDocs returns the collection size (the paper's D).
func (ix *Index) NumDocs() int { return len(ix.docs) }

// Doc returns the document with the given id.
func (ix *Index) Doc(id DocID) (Document, error) {
	if id < 0 || int(id) >= len(ix.docs) {
		return Document{}, fmt.Errorf("textidx: no document %d", id)
	}
	return ix.docs[id], nil
}

// FieldNames returns the sorted names of all indexed fields.
func (ix *Index) FieldNames() []string {
	out := make([]string, 0, len(ix.fields))
	for f := range ix.fields {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// DocFrequency returns the number of documents whose field contains the
// term (the fanout of one instantiation). It does not charge any cost; it
// exists for the statistics the paper suggests text systems could export
// (§8) and for tests.
func (ix *Index) DocFrequency(field, term string) int {
	fi := ix.fields[field]
	if fi == nil {
		return 0
	}
	pl := fi.terms[normalizeToken(term)]
	if pl == nil {
		return 0
	}
	return len(pl.docs)
}

// list returns the posting list for (field, term), or nil.
func (ix *Index) list(field, term string) *postingList {
	fi := ix.fields[field]
	if fi == nil {
		return nil
	}
	return fi.terms[term]
}

// prefixTerms returns all indexed terms of the field beginning with stem.
// The index must be frozen.
func (ix *Index) prefixTerms(field, stem string) []string {
	fi := ix.fields[field]
	if fi == nil {
		return nil
	}
	terms := fi.sortedTerms
	lo := sort.SearchStrings(terms, stem)
	hi := lo
	for hi < len(terms) && strings.HasPrefix(terms[hi], stem) {
		hi++
	}
	return terms[lo:hi]
}

// allDocs returns the sorted list of every docid (the universe used to
// evaluate NOT).
func (ix *Index) allDocs() []DocID {
	out := make([]DocID, len(ix.docs))
	for i := range out {
		out[i] = DocID(i)
	}
	return out
}
