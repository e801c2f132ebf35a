package textidx

import "fmt"

// EvalResult is the outcome of evaluating a search expression: the sorted
// docids of matching documents plus the processing work done, measured as
// the total length of all inverted lists retrieved (the quantity the
// paper's c_p constant multiplies). Docs may share storage with the index
// and must not be modified.
type EvalResult struct {
	Docs     []DocID
	Postings int
}

// Eval evaluates a Boolean search expression over the frozen index.
//
// The charge follows the paper's model of inversion-based systems: every
// inverted list the expression names is fetched and counted at its full
// length. The walk does not follow the model's order, though. A
// conjunction evaluates its docid-only conjuncts first, and a phrase or
// proximity conjunct then checks positions only at the documents that
// survive them; a negated conjunct subtracts from the survivors.
func (ix *Index) Eval(e Expr) (EvalResult, error) {
	if !ix.frozen {
		return EvalResult{}, fmt.Errorf("textidx: Eval requires a frozen index")
	}
	return ix.EvalFirst(e, ix.NumDocs())
}

// EvalFirst evaluates e over the first n documents of the index, as Eval
// would over an index of those documents alone: every list the expression
// names is read and charged only up to its first docid at or past n, and
// a Not charges n and complements within [0, n). Nothing is copied, so a
// reader can hold n fixed while the index keeps growing: EvalFirst also
// runs on an index that is not frozen, provided the caller orders it
// against Add (a read lock around EvalFirst, a write lock around Add).
func (ix *Index) EvalFirst(e Expr, n int) (EvalResult, error) {
	if n < 0 || n > ix.NumDocs() {
		return EvalResult{}, fmt.Errorf("textidx: EvalFirst over %d of %d documents", n, ix.NumDocs())
	}
	if err := Validate(e); err != nil {
		return EvalResult{}, err
	}
	ev := evaluator{ix: ix, n: DocID(n)}
	docs := ev.eval(e, everyDoc)
	return EvalResult{Docs: docs, Postings: ev.postings}, nil
}

type evaluator struct {
	ix       *Index
	n        DocID // documents at or past n are outside the evaluation
	postings int
}

// cands is the set of documents an expression is evaluated within: the
// running result of the conjuncts of an enclosing And that came before it.
// Until a conjunct has narrowed it, every document is a candidate (all).
// That is not the same as an empty ids, within which nothing matches.
type cands struct {
	all bool
	ids []DocID
}

var everyDoc = cands{all: true}

// within returns the documents of the sorted list that are candidates.
func (c cands) within(docs []DocID) []DocID {
	if c.all {
		return docs[:len(docs):len(docs)]
	}
	return intersectIDs(c.ids, docs)
}

// fetch returns the part below ev.n of the posting list for (field,
// term) in one concrete field, charging its length. A list with nothing
// below ev.n is missing, as it is from an index of the first n documents.
func (ev *evaluator) fetch(field, term string) (postingList, bool) {
	pl := ev.ix.list(field, term)
	if pl == nil {
		return postingList{}, false
	}
	docs, positions := pl.docs, pl.positions
	if k := len(docs); k > 0 && docs[k-1] >= ev.n {
		k = seek(docs, 0, ev.n)
		docs, positions = docs[:k:k], positions[:k:k]
	}
	if len(docs) == 0 {
		return postingList{}, false
	}
	ev.postings += len(docs)
	return postingList{docs: docs, positions: positions}, true
}

// fieldsFor resolves "" to all indexed fields.
func (ev *evaluator) fieldsFor(field string) []string {
	if field != "" {
		return []string{field}
	}
	return ev.ix.FieldNames()
}

// eval returns the sorted documents among c that match e. It fetches and
// charges every list e names, whatever c holds.
func (ev *evaluator) eval(e Expr, c cands) []DocID {
	var partsBuf [4][]DocID // a scoped leaf has one part; room for a few more
	parts := partsBuf[:0]
	switch e := e.(type) {
	case Term:
		word := normalizeToken(e.Word)
		for _, f := range ev.fieldsFor(e.Field) {
			if pl, ok := ev.fetch(f, word); ok {
				parts = append(parts, c.within(pl.docs))
			}
		}
	case Prefix:
		stem := normalizeToken(e.Stem)
		for _, f := range ev.fieldsFor(e.Field) {
			for _, term := range ev.ix.prefixTerms(f, stem) {
				if pl, ok := ev.fetch(f, term); ok {
					parts = append(parts, c.within(pl.docs))
				}
			}
		}
	case Phrase:
		for _, f := range ev.fieldsFor(e.Field) {
			parts = append(parts, ev.positional(f, e, c))
		}
	case Near:
		for _, f := range ev.fieldsFor(e.Field) {
			parts = append(parts, ev.positional(f, e, c))
		}
	case Or:
		if len(e) > cap(parts) {
			parts = make([][]DocID, 0, len(e))
		}
		for _, sub := range e {
			parts = append(parts, ev.eval(sub, c))
		}
	case And:
		// Each conjunct narrows the candidates of the next: the docid-only
		// ones first, then the positional ones, then the negated ones.
		for rank := 0; rank < 3; rank++ {
			for _, sub := range e {
				if conjunctRank(sub) == rank {
					c = cands{ids: ev.eval(sub, c)}
				}
			}
		}
		return c.ids
	case Not:
		// Complementing is charged a pass over the full docid universe,
		// also when it only subtracts from an And's candidates.
		ev.postings += int(ev.n)
		neg := ev.eval(e.E, c)
		if c.all {
			return complementIDs(int(ev.n), neg)
		}
		return diffIDs(c.ids, neg)
	}
	return unionAll(parts)
}

// conjunctRank orders an And's children: docid-only (0), positional (1),
// negated (2).
func conjunctRank(e Expr) int {
	switch e.(type) {
	case Phrase, Near:
		return 1
	case Not:
		return 2
	}
	return 0
}

// positional returns the documents among c whose field holds the Phrase
// or Near leaf. It fetches and charges the leaf's lists as the paper's
// model does: a phrase's words up to the first that has no list, and both
// operands of a Near. It then drives from the shortest of those lists and
// the candidates, and gallops a cursor through each of the others to each
// driving document. Adjacency (Phrase) or distance (Near) is checked on
// the positions found where every list holds the document.
func (ev *evaluator) positional(field string, leaf Expr, c cands) []DocID {
	var words []string
	dist := 0 // a Near's distance; Validate keeps it positive
	switch l := leaf.(type) {
	case Phrase:
		words = l.Words
	case Near:
		words, dist = []string{l.A, l.B}, l.Dist
	}
	lists := make([]postingList, len(words))
	missing := false
	for i, w := range words {
		var ok bool
		if lists[i], ok = ev.fetch(field, normalizeToken(w)); !ok {
			missing = true
			if dist == 0 {
				break
			}
		}
	}
	if missing {
		return nil
	}
	drive := lists[0].docs
	for _, pl := range lists[1:] {
		if len(pl.docs) < len(drive) {
			drive = pl.docs
		}
	}
	if !c.all && len(c.ids) < len(drive) {
		drive = c.ids
	}
	cursors := make([]int, len(lists))
	pos := make([][]int32, len(lists))
	out := make([]DocID, 0, len(drive))
	kc := 0 // the candidates' cursor
next:
	for _, id := range drive {
		if !c.all {
			if kc = seek(c.ids, kc, id); kc == len(c.ids) {
				break
			}
			if c.ids[kc] != id {
				continue
			}
		}
		for i, pl := range lists {
			k := seek(pl.docs, cursors[i], id)
			cursors[i] = k
			if k == len(pl.docs) {
				break next
			}
			if pl.docs[k] != id {
				continue next
			}
			pos[i] = pl.positions[k]
		}
		if dist == 0 && adjacent(pos) || dist > 0 && withinDistance(pos[0], pos[1], dist) {
			out = append(out, id)
		}
	}
	return out
}

// adjacent reports whether some position p of the first word has the
// i-th word at p+i for every later word i.
func adjacent(pos [][]int32) bool {
	for _, p := range pos[0] {
		ok := true
		for i := 1; i < len(pos) && ok; i++ {
			ok = containsPos(pos[i], p+int32(i))
		}
		if ok {
			return true
		}
	}
	return false
}

func containsPos(ps []int32, p int32) bool {
	for _, q := range ps {
		if q == p {
			return true
		}
	}
	return false
}

// withinDistance reports whether any position in a and any in b differ by
// at most dist (and are distinct positions).
func withinDistance(a, b []int32, dist int) bool {
	for _, pa := range a {
		for _, pb := range b {
			d := pa - pb
			if d < 0 {
				d = -d
			}
			if d != 0 && int(d) <= dist {
				return true
			}
		}
	}
	return false
}
