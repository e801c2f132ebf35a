package textidx

import "fmt"

// refEval is the reference evaluator: Eval as it stood before
// conjunctions drove their positional children from candidates. It walks
// every list in full and folds And and Or pairwise, so it is slow but
// plainly follows the paper's model; the property test and FuzzEval hold
// Eval's documents and Postings to it. It is that evaluator verbatim apart
// from its names, and it shares EvalResult, the set operations and the
// position checks with Eval.
func (ix *Index) refEval(e Expr) (EvalResult, error) {
	if !ix.frozen {
		return EvalResult{}, fmt.Errorf("textidx: Eval requires a frozen index")
	}
	if err := Validate(e); err != nil {
		return EvalResult{}, err
	}
	ev := refEvaluator{ix: ix}
	docs := ev.eval(e)
	return EvalResult{Docs: docs, Postings: ev.postings}, nil
}

type refEvaluator struct {
	ix       *Index
	postings int
}

// fetch returns the posting list for (field, term) in one concrete field,
// charging its length.
func (ev *refEvaluator) fetch(field, term string) *postingList {
	pl := ev.ix.list(field, term)
	if pl == nil {
		return nil
	}
	ev.postings += len(pl.docs)
	return pl
}

// fieldsFor resolves "" to all indexed fields.
func (ev *refEvaluator) fieldsFor(field string) []string {
	if field != "" {
		return []string{field}
	}
	return ev.ix.FieldNames()
}

func (ev *refEvaluator) eval(e Expr) []DocID {
	switch e := e.(type) {
	case Term:
		return ev.evalTerm(e)
	case Phrase:
		return ev.evalPhrase(e)
	case Prefix:
		return ev.evalPrefix(e)
	case Near:
		return ev.evalNear(e)
	case And:
		out := ev.eval(e[0])
		for _, sub := range e[1:] {
			out = intersectIDs(out, ev.eval(sub))
		}
		return out
	case Or:
		out := ev.eval(e[0])
		for _, sub := range e[1:] {
			out = unionIDs(out, ev.eval(sub))
		}
		return out
	case Not:
		// Complementing requires a pass over the full docid universe.
		ev.postings += ev.ix.NumDocs()
		return diffIDs(ev.ix.allDocs(), ev.eval(e.E))
	default:
		return nil
	}
}

func (ev *refEvaluator) evalTerm(t Term) []DocID {
	word := normalizeToken(t.Word)
	var out []DocID
	for _, f := range ev.fieldsFor(t.Field) {
		if pl := ev.fetch(f, word); pl != nil {
			out = unionIDs(out, pl.docs)
		}
	}
	return out
}

func (ev *refEvaluator) evalPrefix(p Prefix) []DocID {
	stem := normalizeToken(p.Stem)
	var out []DocID
	for _, f := range ev.fieldsFor(p.Field) {
		for _, term := range ev.ix.prefixTerms(f, stem) {
			if pl := ev.fetch(f, term); pl != nil {
				out = unionIDs(out, pl.docs)
			}
		}
	}
	return out
}

func (ev *refEvaluator) evalPhrase(p Phrase) []DocID {
	var out []DocID
	for _, f := range ev.fieldsFor(p.Field) {
		out = unionIDs(out, ev.phraseInField(f, p.Words))
	}
	return out
}

// phraseInField intersects the words' lists with adjacency checks.
func (ev *refEvaluator) phraseInField(field string, words []string) []DocID {
	lists := make([]*postingList, len(words))
	for i, w := range words {
		pl := ev.fetch(field, normalizeToken(w))
		if pl == nil {
			return nil
		}
		lists[i] = pl
	}
	// Walk candidates: docs present in every list where positions line up.
	var out []DocID
	cursors := make([]int, len(lists))
	first := lists[0]
candidate:
	for i0, id := range first.docs {
		// Advance every cursor to id.
		positionsByWord := make([][]int32, len(lists))
		positionsByWord[0] = first.positions[i0]
		for w := 1; w < len(lists); w++ {
			c := cursors[w]
			for c < len(lists[w].docs) && lists[w].docs[c] < id {
				c++
			}
			cursors[w] = c
			if c >= len(lists[w].docs) || lists[w].docs[c] != id {
				continue candidate
			}
			positionsByWord[w] = lists[w].positions[c]
		}
		// Adjacency: some p with word w at p+w for all w.
		for _, p0 := range positionsByWord[0] {
			ok := true
			for w := 1; w < len(positionsByWord); w++ {
				if !containsPos(positionsByWord[w], p0+int32(w)) {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, id)
				break
			}
		}
	}
	return out
}

func (ev *refEvaluator) evalNear(n Near) []DocID {
	var out []DocID
	for _, f := range ev.fieldsFor(n.Field) {
		out = unionIDs(out, ev.nearInField(f, n))
	}
	return out
}

func (ev *refEvaluator) nearInField(field string, n Near) []DocID {
	la := ev.fetch(field, normalizeToken(n.A))
	lb := ev.fetch(field, normalizeToken(n.B))
	if la == nil || lb == nil {
		return nil
	}
	var out []DocID
	i, j := 0, 0
	for i < len(la.docs) && j < len(lb.docs) {
		switch {
		case la.docs[i] < lb.docs[j]:
			i++
		case la.docs[i] > lb.docs[j]:
			j++
		default:
			if withinDistance(la.positions[i], lb.positions[j], n.Dist) {
				out = append(out, la.docs[i])
			}
			i++
			j++
		}
	}
	return out
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
