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
//   - build: the result's token index of each predicate field
//     (texservice.Result.TokenIndex), built once per result and shared by
//     every matcher over it, so a result the caches hand to many queries
//     is tokenized once;
//   - probe: each distinct value a predicate sees is tokenized once and
//     its matching hits are computed once and memoized — a word's postings,
//     or, for a phrase, the intersection of its words' postings narrowed
//     to the hits whose value holds the words adjacently
//     (textidx.PhraseIn, which re-scans just those values);
//   - per tuple: one map lookup per predicate and an intersection of the
//     sorted hit lists.
//
// Intersecting lists sorted by hit index yields hits in hit order, so a
// caller that walks tuples in order and emits each tuple's matches in
// order produces exactly the nested loop's (tuple, hit) order. Matching is
// textidx.TermOccursIn's: a value with no words matches nothing, and a
// field the hit lacks is empty.
type hitMatcher struct {
	res   *texservice.Result
	preds []Pred
	// cols are the predicates' relation-schema offsets.
	cols []int
	// index is the build side per predicate, fetched on first probe.
	index []*texservice.TokenIndex
	// memo holds, per predicate, the matching hits of every value probed.
	memo []map[string][]int32
	// scratch backs the conjunction result match returns; cand a phrase's
	// candidate hits.
	scratch, cand []int32
}

// newHitMatcher returns a matcher of the result's hits against tuples of
// the spec's relation on the given predicates. It reads no index until
// probed.
func newHitMatcher(spec *Spec, res *texservice.Result, preds []Pred) *hitMatcher {
	m := &hitMatcher{
		res:   res,
		preds: preds,
		cols:  make([]int, len(preds)),
		index: make([]*texservice.TokenIndex, len(preds)),
		memo:  make([]map[string][]int32, len(preds)),
	}
	for i, p := range preds {
		m.cols[i] = spec.offset(p.Column)
		m.memo[i] = map[string][]int32{}
	}
	if len(preds) == 0 {
		for h := range res.Hits {
			m.scratch = append(m.scratch, int32(h))
		}
	}
	return m
}

// hitsFor returns the ascending indexes of the hits whose field of
// predicate i contains the value as a word or phrase.
func (m *hitMatcher) hitsFor(i int, value string) []int32 {
	if hs, ok := m.memo[i][value]; ok {
		return hs
	}
	var hs []int32
	if words := textidx.Tokenize(value); len(words) > 0 {
		if m.index[i] == nil {
			m.index[i] = m.res.TokenIndex(m.preds[i].Field)
		}
		hs = m.index[i].Hits(words[0])
		if len(words) > 1 {
			// Only a hit holding every word can hold the phrase.
			m.cand = intersectSorted(m.cand[:0], hs, m.index[i].Hits(words[1]))
			for _, w := range words[2:] {
				m.cand = intersectSorted(m.cand[:0], m.cand, m.index[i].Hits(w))
			}
			col := m.res.Column(m.preds[i].Field)
			var phrase []int32
			for _, h := range m.cand {
				if textidx.PhraseIn(m.res.Hits[h].Value(col), words) {
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
func (m *hitMatcher) match(tuple relation.Tuple) []int32 {
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
func intersectSorted(dst, a, b []int32) []int32 {
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
