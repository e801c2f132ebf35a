package texservice

import (
	"slices"
	"sync"

	"textjoin/internal/textidx"
)

// Hit is one matching document in a result set. Its field values are
// columnar: Values[i] is the document's value of its Result's Fields[i],
// "" where the document lacks that field.
type Hit struct {
	ID     textidx.DocID
	ExtID  string
	Values []string
}

// Value returns the hit's value in column col of its result; "" for a
// negative col (a field the result does not carry).
func (h Hit) Value(col int) string {
	if col < 0 {
		return ""
	}
	return h.Values[col]
}

// Result is a search result set, shaped as a table: it names its fields
// once, and each hit carries its values in that order. Short form carries
// the service's short fields, long form the union of the matching
// documents' fields.
//
// A result is read-only once returned, and may be shared: the caches hand
// one result to every query that repeats its search. What relational
// matching builds over it (TokenIndex) is built once and shared the same
// way. A Result holds a lock, so it must not be copied by value.
type Result struct {
	Fields []string
	Hits   []Hit
	// Postings is the total length of the inverted lists the text system
	// processed for this search.
	Postings int
	// Partial marks a result that is known to be incomplete: a sharded
	// service in best-effort mode sets it when one or more shards failed
	// and their documents are missing. Unsharded services never set it.
	Partial bool

	mu     sync.Mutex
	tokens map[string]*TokenIndex // per field, built on first use
}

// IsEmpty reports whether no documents matched (a fail-query, §3.3).
func (r *Result) IsEmpty() bool { return len(r.Hits) == 0 }

// Column returns the index of the named field in r.Fields, or -1 when the
// result does not carry it.
func (r *Result) Column(field string) int { return slices.Index(r.Fields, field) }

// TokenIndex returns the token index of one field over the result's hits
// (see TokenIndex). It is built on the first call for the field and
// shared by every later caller, concurrent ones included; a caller that
// arrives during the build waits for it.
func (r *Result) TokenIndex(field string) *TokenIndex {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ix, ok := r.tokens[field]; ok {
		return ix
	}
	if r.tokens == nil {
		r.tokens = map[string]*TokenIndex{}
	}
	ix := newTokenIndex(r.Hits, r.Column(field))
	r.tokens[field] = ix
	return ix
}

// TokenIndex is one field of a result's hits, inverted: each token of the
// field's values (textidx.Tokenize) maps to the ascending indexes of the
// hits whose value contains it. It keeps no per-hit token lists; a caller
// that needs adjacency (a phrase) re-scans the candidate hits' values
// (textidx.PhraseIn). It is read-only once built.
type TokenIndex struct {
	ids  map[string]int32 // token → token id
	off  []int32          // token id → its postings' start in hits; one extra end entry
	hits []int32          // every token's postings, by token id
}

// newTokenIndex inverts column col of the hits, in two passes over one
// flat posting array: the first numbers the tokens and counts each
// token's hits, the second places every hit in its token's run. Walking
// the hits in order keeps each run ascending.
func newTokenIndex(hits []Hit, col int) *TokenIndex {
	ix := &TokenIndex{ids: map[string]int32{}}
	var (
		toks  []string
		seq   []int32 // token ids, hit after hit, each once per hit
		ends  = make([]int32, len(hits))
		count []int32 // per token id
		last  []int32 // per token id: the last hit counted
	)
	for h, hit := range hits {
		toks = textidx.AppendTokens(toks[:0], hit.Value(col))
		for _, t := range toks {
			id, ok := ix.ids[t]
			if !ok {
				id = int32(len(count))
				ix.ids[t] = id
				count = append(count, 0)
				last = append(last, -1)
			}
			if last[id] != int32(h) {
				last[id] = int32(h)
				count[id]++
				seq = append(seq, id)
			}
		}
		ends[h] = int32(len(seq))
	}
	ix.off = make([]int32, len(count)+1)
	for id, n := range count {
		ix.off[id+1] = ix.off[id] + n
	}
	// next[id] is where token id's next hit goes; count is spent, so
	// next takes over its array.
	next := append(count[:0], ix.off[:len(count)]...)
	ix.hits = make([]int32, len(seq))
	start := int32(0)
	for h, end := range ends {
		for _, id := range seq[start:end] {
			ix.hits[next[id]] = int32(h)
			next[id]++
		}
		start = end
	}
	return ix
}

// Hits returns the ascending indexes of the hits whose value contains the
// token (already lower-cased, as textidx.Tokenize returns it). The slice
// is the index's own; callers must not modify it.
func (ix *TokenIndex) Hits(token string) []int32 {
	id, ok := ix.ids[token]
	if !ok {
		return nil
	}
	return ix.hits[ix.off[id]:ix.off[id+1]:ix.off[id+1]]
}
