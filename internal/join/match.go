package join

import (
	"textjoin/internal/relation"
	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
)

// hitMatcher attributes one search result's short-form hits to tuples by
// relational string matching (§3.2), as a hash join instead of a tuples ×
// hits nested loop:
//
//   - build: the first time a predicate on a field is probed, every hit's
//     field is tokenized once into token → ascending hit indexes, keeping
//     each hit's token slice for phrase adjacency;
//   - probe: each distinct value a predicate sees is tokenized once and
//     its matching hits are computed once and memoized — a word's postings,
//     or a phrase's first-word postings filtered by textidx.ContainsPhrase;
//   - per tuple: one map lookup per predicate and an intersection of the
//     sorted hit lists.
//
// Intersecting lists sorted by hit index yields hits in hit order, so a
// caller that walks tuples in order and emits each tuple's matches in
// order produces exactly the nested loop's (tuple, hit) order. Matching is
// textidx.TermOccursIn's: a value with no words matches nothing, and a
// field the hit lacks is empty.
type hitMatcher struct {
	hits  []texservice.Hit
	preds []Pred
	// cols are the predicates' relation-schema offsets.
	cols []int
	// fields is the build side, per predicate field.
	fields map[string]*fieldPostings
	// memo holds, per predicate, the matching hits of every value probed.
	memo []map[string][]int
	// scratch backs the conjunction result match returns.
	scratch []int
}

// fieldPostings is one field of every hit, tokenized.
type fieldPostings struct {
	toks     [][]string       // per hit
	postings map[string][]int // token → ascending hit indexes
}

// newHitMatcher returns a matcher of the hits against tuples of the spec's
// relation on the given predicates. It tokenizes nothing until probed.
func newHitMatcher(spec *Spec, hits []texservice.Hit, preds []Pred) *hitMatcher {
	m := &hitMatcher{
		hits:   hits,
		preds:  preds,
		cols:   make([]int, len(preds)),
		fields: map[string]*fieldPostings{},
		memo:   make([]map[string][]int, len(preds)),
	}
	for i, p := range preds {
		m.cols[i] = spec.offset(p.Column)
		m.memo[i] = map[string][]int{}
	}
	if len(preds) == 0 {
		for h := range hits {
			m.scratch = append(m.scratch, h)
		}
	}
	return m
}

// field returns the build side of one field, tokenizing it on first use.
func (m *hitMatcher) field(name string) *fieldPostings {
	if fp, ok := m.fields[name]; ok {
		return fp
	}
	fp := &fieldPostings{toks: make([][]string, len(m.hits)), postings: map[string][]int{}}
	for h, hit := range m.hits {
		toks := textidx.Tokenize(hit.Fields[name])
		fp.toks[h] = toks
		for _, t := range toks {
			list := fp.postings[t]
			if n := len(list); n == 0 || list[n-1] != h {
				fp.postings[t] = append(list, h)
			}
		}
	}
	m.fields[name] = fp
	return fp
}

// hitsFor returns the ascending indexes of the hits whose field of
// predicate i contains the value as a word or phrase.
func (m *hitMatcher) hitsFor(i int, value string) []int {
	if hs, ok := m.memo[i][value]; ok {
		return hs
	}
	var hs []int
	if words := textidx.Tokenize(value); len(words) > 0 {
		fp := m.field(m.preds[i].Field)
		hs = fp.postings[words[0]]
		if len(words) > 1 {
			var phrase []int
			for _, h := range hs {
				if textidx.ContainsPhrase(fp.toks[h], words) {
					phrase = append(phrase, h)
				}
			}
			hs = phrase
		}
	}
	m.memo[i][value] = hs
	return hs
}

// match returns the ascending indexes of the hits the tuple matches on
// every predicate (every hit when there are none). The slice is valid
// until the next call.
func (m *hitMatcher) match(tuple relation.Tuple) []int {
	if len(m.preds) == 0 {
		return m.scratch // every hit, filled by newHitMatcher
	}
	out := m.hitsFor(0, tuple[m.cols[0]].Text())
	for i := 1; i < len(m.preds) && len(out) > 0; i++ {
		// After the first intersection out is scratch itself; intersecting
		// in place is safe because writes trail reads.
		out = intersectSorted(m.scratch[:0], out, m.hitsFor(i, tuple[m.cols[i]].Text()))
		m.scratch = out
	}
	return out
}

// intersectSorted appends to dst the elements common to the ascending
// lists a and b. dst may share a's backing array from its start.
func intersectSorted(dst, a, b []int) []int {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}
