package join

import (
	"context"
	"sync"

	"textjoin/internal/relation"
	"textjoin/internal/texservice"
)

// TS is tuple substitution (§3.1): a nested-loop join with the relation as
// the outer operand, sending one instantiated search per distinct binding
// of the join columns (the variant the paper's experiments use). Results
// are shared by all tuples with the same binding.
//
// Workers > 1 sends the substituted searches from a pool of goroutines —
// the searches are independent, so a loosely coupled text system (in
// particular a remote one, where each search is a network round trip) can
// overlap them. Results are emitted in the same deterministic order as
// the sequential execution.
type TS struct {
	// Workers is the number of concurrent searches (≤1 = sequential).
	Workers int
}

// Name implements Method.
func (TS) Name() string { return "TS" }

// Applicable implements Method: tuple substitution is universally
// applicable.
func (TS) Applicable(spec *Spec, svc texservice.Service) error {
	return spec.Validate()
}

// Execute implements Method.
func (m TS) Execute(ctx context.Context, spec *Spec, svc texservice.Service) (*Result, error) {
	return run(ctx, m.Name(), spec, svc, func(ex *execution) error {
		cols := spec.JoinColumns()
		keys, groups, err := spec.Relation.GroupBy(cols...)
		if err != nil {
			return err
		}
		form := ex.searchForm()
		results, err := searchBindings(ex, keys, groups, m.Workers, form)
		if err != nil {
			return err
		}
		for i, key := range keys {
			if results[i] == nil {
				continue // unsearchable binding: no document can match
			}
			for _, rowIdx := range groups[key] {
				for _, hit := range results[i].Hits {
					ex.emit(spec.Relation.Rows[rowIdx], hit.ExtID, hit.Fields)
				}
			}
		}
		return nil
	})
}

// searchBindings runs the substituted search for every binding key,
// sequentially or with a worker pool, returning results aligned with
// keys (nil for unsearchable bindings).
func searchBindings(ex *execution, keys []string, groups map[string][]int, workers int, form texservice.Form) ([]*texservice.Result, error) {
	spec := ex.spec
	results := make([]*texservice.Result, len(keys))
	exprs := make([]textidxExpr, len(keys))
	for i, key := range keys {
		rep := spec.Relation.Rows[groups[key][0]]
		if expr, ok := spec.SubstExpr(rep, spec.Preds); ok {
			exprs[i] = expr
		}
	}
	if workers <= 1 {
		for i, expr := range exprs {
			if expr == nil {
				continue
			}
			res, err := ex.svc.Search(ex.ctx, expr, form)
			if err != nil {
				return nil, err
			}
			results[i] = res
		}
		return results, nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				res, err := ex.svc.Search(ex.ctx, exprs[i], form)
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
				} else {
					results[i] = res
				}
				mu.Unlock()
			}
		}()
	}
	for i, expr := range exprs {
		if expr != nil {
			jobs <- i
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

var _ Method = TS{}

// RTP is relational text processing (§3.2): a single search carrying only
// the text selection; the returned short-form documents are matched
// against the relation with SQL string matching.
type RTP struct{}

// Name implements Method.
func (RTP) Name() string { return "RTP" }

// Applicable implements Method: RTP needs a text selection (it sends
// nothing else to the text system) and join-predicate fields that the
// short form carries.
func (RTP) Applicable(spec *Spec, svc texservice.Service) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if spec.TextSel == nil {
		return errNoSelection
	}
	return requireShortFields(spec.Preds, svc)
}

// Execute implements Method.
func (RTP) Execute(ctx context.Context, spec *Spec, svc texservice.Service) (*Result, error) {
	if err := (RTP{}).Applicable(spec, svc); err != nil {
		return nil, err
	}
	return run(ctx, RTP{}.Name(), spec, svc, func(ex *execution) error {
		res, err := svc.Search(ex.ctx, spec.TextSel, texservice.FormShort)
		if err != nil {
			return err
		}
		svc.Meter().ChargeRTP(ex.ctx, len(res.Hits))
		return matchHitsRelationally(ex, spec.Relation.Rows, res.Hits, spec.Preds)
	})
}

var _ Method = RTP{}

// matchHitsRelationally emits a row for every (tuple, hit) pair satisfying
// the predicates by string matching, in tuple-then-hit order, fetching long
// forms through the cache when the spec requires them.
func matchHitsRelationally(ex *execution, tuples []relation.Tuple, hits []texservice.Hit, preds []Pred) error {
	m := newHitMatcher(ex.spec, hits, preds)
	for _, tuple := range tuples {
		for _, h := range m.match(tuple) {
			if err := ex.emitHit(tuple, hits[h], false); err != nil {
				return err
			}
		}
	}
	return nil
}
