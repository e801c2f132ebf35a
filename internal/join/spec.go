// Package join implements the paper's foreign-join execution methods (§3):
// tuple substitution (TS), relational text processing (RTP), semi-join with
// relational text processing (SJ+RTP), probing with tuple substitution
// (P+TS), and probing with relational text processing (P+RTP) — plus the
// naive full-scan join used as the correctness oracle and the probe-based
// semi-join reducer the multi-join optimizer's PrL trees use (§6).
//
// Every method evaluates the same logical operation: the join of a
// relational table with an external text source on a conjunction of
// "column in field" predicates, optionally under a pure text selection.
// All methods produce exactly the same result rows; they differ only in
// how they drive the text service, and therefore in cost.
package join

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"textjoin/internal/cost"
	"textjoin/internal/obs"
	"textjoin/internal/relation"
	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
	"textjoin/internal/value"
)

// Pred is one foreign join predicate: the relation column's value must
// occur (as word or phrase) in the document field.
type Pred struct {
	Column string
	Field  string
}

// String renders the predicate in the paper's SQL-ish syntax.
func (p Pred) String() string { return p.Column + " in " + p.Field }

// Spec describes a foreign join.
type Spec struct {
	// Relation is the joining relational input (already reduced by any
	// relational selections).
	Relation *relation.Table
	// Preds are the foreign join predicates; at least one.
	Preds []Pred
	// TextSel is the conjunctive text selection on the document side, or
	// nil (e.g. 'belief update' in mercury.title).
	TextSel textidx.Expr
	// LongForm selects whether result rows carry full document fields.
	// When false only the document identifier column is produced
	// (a docid-only query such as the paper's Q2).
	LongForm bool
	// DocFields are the document fields added to result rows when
	// LongForm is set.
	DocFields []string

	// colIdx caches the relation schema's column offsets, resolved once by
	// Validate so the per-binding and per-tuple paths (substitution,
	// relational matching) never repeat the linear schema scan.
	// Every method execution validates first, so the cache is in place
	// before any hot loop runs.
	colIdx map[string]int
}

// DocIDColumn is the name of the document identifier column in results.
const DocIDColumn = "docid"

// Validate checks the spec against the relation's schema and resolves the
// schema's column offsets into the spec's per-execution cache.
func (s *Spec) Validate() error {
	if s.Relation == nil {
		return fmt.Errorf("join: spec has no relation")
	}
	if len(s.Preds) == 0 {
		return fmt.Errorf("join: spec has no join predicates")
	}
	colIdx := make(map[string]int, s.Relation.Schema.Arity())
	for i, c := range s.Relation.Schema.Cols {
		colIdx[c.Name] = i
	}
	for _, p := range s.Preds {
		if _, ok := colIdx[p.Column]; !ok {
			return fmt.Errorf("join: relation %s has no column %q", s.Relation.Name, p.Column)
		}
		if p.Field == "" {
			return fmt.Errorf("join: predicate on column %q has empty field", p.Column)
		}
	}
	s.colIdx = colIdx
	if s.TextSel != nil {
		if err := textidx.Validate(s.TextSel); err != nil {
			return fmt.Errorf("join: invalid text selection: %w", err)
		}
	}
	return nil
}

// offset returns the relation-schema offset of a column, from the cache
// Validate built, or by a direct schema lookup when the spec has not been
// validated (only reachable from code calling unexported helpers directly,
// e.g. tests).
func (s *Spec) offset(name string) int {
	if idx, ok := s.colIdx[name]; ok {
		return idx
	}
	return s.Relation.Schema.ColumnIndex(name)
}

// JoinColumns returns the distinct relation columns referenced by the join
// predicates, in first-appearance order.
func (s *Spec) JoinColumns() []string {
	var out []string
	seen := map[string]bool{}
	for _, p := range s.Preds {
		if !seen[p.Column] {
			seen[p.Column] = true
			out = append(out, p.Column)
		}
	}
	return out
}

// OutputSchema returns the schema of result rows: the relation's columns,
// the document identifier, and (long form only) the requested document
// fields.
func (s *Spec) OutputSchema() *relation.Schema {
	cols := append([]relation.Column(nil), s.Relation.Schema.Cols...)
	cols = append(cols, relation.Column{Name: DocIDColumn, Kind: value.KindString})
	if s.LongForm {
		for _, f := range s.DocFields {
			cols = append(cols, relation.Column{Name: f, Kind: value.KindString})
		}
	}
	return &relation.Schema{Cols: cols}
}

// selTerms returns the number of basic search terms the text selection
// uses (zero without one).
func (s *Spec) selTerms() int {
	if s.TextSel == nil {
		return 0
	}
	return s.TextSel.TermCount()
}

// splitPreds splits the join predicates by column, each side in predicate
// order: on holds those whose columns are in cols, off the rest.
func (s *Spec) splitPreds(cols []string) (on, off []Pred) {
	for _, p := range s.Preds {
		if slices.Contains(cols, p.Column) {
			on = append(on, p)
		} else {
			off = append(off, p)
		}
	}
	return on, off
}

// Stats summarises one join execution.
type Stats struct {
	// Usage is the resource consumption this execution caused (searches,
	// postings, transmissions, simulated cost), read off the per-query
	// meter, so concurrent queries on the same service are not included.
	Usage texservice.Usage
	// Probes is the number of probe searches among Usage.Searches.
	Probes int
	// BatchRounds is how many of the probe searches were batched
	// (multi-binding) round trips — zero under per-tuple probing.
	BatchRounds int
	// ResultRows is the number of rows produced.
	ResultRows int
	// Partial reports that at least one search answer this execution
	// consumed was known to be incomplete (a best-effort federation lost
	// a shard), so the rows may be a subset of the full answer.
	Partial bool
}

// Result is the outcome of executing a join method.
type Result struct {
	Table *relation.Table
	Stats Stats
}

// Method is a foreign-join execution algorithm.
type Method interface {
	// Name returns the paper's abbreviation for the method.
	Name() string
	// Applicable returns nil when the method can execute the spec against
	// the service, or an error explaining why not.
	Applicable(spec *Spec, svc texservice.Service) error
	// Execute runs the join. The context bounds every text-service call
	// the method issues; cancellation aborts the join mid-flight. The
	// result's Stats reflect only this execution.
	Execute(ctx context.Context, spec *Spec, svc texservice.Service) (*Result, error)
}

// For returns the executable method a cost-model method names. probeCols
// is the probe set of the probing methods and is ignored by the others.
func For(m cost.Method, probeCols []string) (Method, error) {
	switch m {
	case cost.MethodTS:
		return TS{}, nil
	case cost.MethodRTP:
		return RTP{}, nil
	case cost.MethodSJRTP:
		return SJRTP{}, nil
	case cost.MethodPTS:
		return PTS{ProbeColumns: probeCols}, nil
	case cost.MethodPRTP:
		return PRTP{ProbeColumns: probeCols}, nil
	case cost.MethodPTSBatch:
		return PTS{ProbeColumns: probeCols, Batched: true}, nil
	case cost.MethodPRTPBatch:
		return PRTP{ProbeColumns: probeCols, Batched: true}, nil
	default:
		return nil, fmt.Errorf("join: unknown method %v", m)
	}
}

// run wraps a method body with validation, usage accounting and a span
// (named "join.<method>", or "probe.reduce") whose attributes summarize
// the execution: result rows, probes issued, and metered text cost.
//
// Usage is read off the per-query meter the context carries
// (texservice.WithQueryMeter), installing a fresh one when there is none,
// as exec.Run does: the service's own meter is shared by every concurrent
// query, so a delta of it would bill this execution for their charges.
func run(ctx context.Context, span string, spec *Spec, svc texservice.Service, body func(*execution) error) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	qm := texservice.QueryMeterFrom(ctx)
	if qm == nil {
		qm = texservice.NewMeter(texservice.DefaultCosts())
		ctx = texservice.WithQueryMeter(ctx, qm)
	}
	before := qm.Snapshot()
	ctx, sp := obs.StartSpan(ctx, span)
	defer sp.End()
	ex := &execution{
		ctx:  ctx,
		spec: spec,
		svc:  svc,
		out:  relation.NewTable(spec.Relation.Name+"⋈text", spec.OutputSchema()),
	}
	if err := body(ex); err != nil {
		return nil, err
	}
	ex.stats.Usage = qm.Snapshot().Sub(before)
	ex.stats.ResultRows = ex.out.Cardinality()
	if sp != nil {
		sp.SetAttr(obs.Int("input_rows", spec.Relation.Cardinality()),
			obs.Int("rows", ex.stats.ResultRows), obs.Int("probes", ex.stats.Probes),
			obs.Int("batch_rounds", ex.stats.BatchRounds),
			obs.Int("searches", ex.stats.Usage.Searches), obs.F64("text_cost", ex.stats.Usage.Cost))
	}
	return &Result{Table: ex.out, Stats: ex.stats}, nil
}

// execution carries shared per-run state for the method implementations.
type execution struct {
	ctx   context.Context
	spec  *Spec
	svc   texservice.Service
	out   *relation.Table
	stats Stats
	// docCache caches long-form retrievals by docid.
	docCache map[textidx.DocID]textidx.Document
}

// searchForm is the form substituted searches request: long when the query
// needs documents, short otherwise.
func (ex *execution) searchForm() texservice.Form {
	if ex.spec.LongForm {
		return texservice.FormLong
	}
	return texservice.FormShort
}

// row starts one result row for (tuple, document): the tuple's values
// and the document identifier, with room for the long form's fields.
func (ex *execution) row(tuple relation.Tuple, extID string) relation.Tuple {
	row := make(relation.Tuple, 0, ex.out.Schema.Arity())
	row = append(row, tuple...)
	return append(row, value.String(extID))
}

// emitHit emits a row from a short-form hit, fetching the long form
// through the cache when the query needs documents.
func (ex *execution) emitHit(tuple relation.Tuple, hit texservice.Hit) error {
	if !ex.spec.LongForm {
		ex.out.Rows = append(ex.out.Rows, ex.row(tuple, hit.ExtID))
		return nil
	}
	doc, err := ex.retrieve(hit.ID)
	if err != nil {
		return err
	}
	row := ex.row(tuple, doc.ExtID)
	for _, f := range ex.spec.DocFields {
		row = append(row, value.String(doc.Fields[f]))
	}
	ex.out.Rows = append(ex.out.Rows, row)
	return nil
}

// retrieve fetches a document long-form, at most once per docid.
func (ex *execution) retrieve(id textidx.DocID) (textidx.Document, error) {
	if ex.docCache == nil {
		ex.docCache = map[textidx.DocID]textidx.Document{}
	}
	if doc, ok := ex.docCache[id]; ok {
		return doc, nil
	}
	doc, err := ex.svc.Retrieve(ex.ctx, id)
	if err != nil {
		return textidx.Document{}, err
	}
	ex.docCache[id] = doc
	return doc, nil
}

// search sends one search and records whether its answer was partial.
func (ex *execution) search(ctx context.Context, e textidx.Expr, form texservice.Form) (*texservice.Result, error) {
	res, err := ex.svc.Search(ctx, e, form)
	if err != nil {
		return nil, err
	}
	ex.stats.Partial = ex.stats.Partial || res.Partial
	return res, nil
}

// searchEach is the per-binding search step. For k < n it takes expr(k),
// the search of binding k, skipping a binding that has none (a value with
// no searchable words cannot match any document), and sends the searches
// in form: one at a time, each answer handed to fn before the next search
// is sent (so the meter sees each binding's charges in turn), or batched,
// all through texservice.SearchBatch and then handed to fn in order. It
// returns the number of invocations and records whether any answer was
// partial.
func (ex *execution) searchEach(ctx context.Context, n int, expr func(k int) (textidx.Expr, bool), form texservice.Form, batched bool, fn func(k int, res *texservice.Result)) (int, error) {
	if !batched {
		sent := 0
		for k := range n {
			e, ok := expr(k)
			if !ok {
				continue
			}
			res, err := ex.search(ctx, e, form)
			if err != nil {
				return sent, err
			}
			sent++
			fn(k, res)
		}
		return sent, nil
	}
	var exprs []textidx.Expr
	var keys []int
	for k := range n {
		if e, ok := expr(k); ok {
			exprs, keys = append(exprs, e), append(keys, k)
		}
	}
	results, invocations, err := texservice.SearchBatch(ctx, ex.svc, exprs, form)
	if err != nil {
		return invocations, err
	}
	for j, res := range results {
		ex.stats.Partial = ex.stats.Partial || res.Partial
		fn(keys[j], res)
	}
	return invocations, nil
}

// requireShortFields verifies that relational text processing can evaluate
// the given predicates: their fields must be transmitted in short form.
func requireShortFields(preds []Pred, svc texservice.Service) error {
	short := map[string]bool{}
	for _, f := range svc.ShortFields() {
		short[f] = true
	}
	var missing []string
	for _, p := range preds {
		if !short[p.Field] {
			missing = append(missing, p.Field)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("join: fields %v are not in the service's short form; relational text processing is inapplicable", missing)
	}
	return nil
}
