// Package core is the top-level API of the library: a federated query
// engine that loosely integrates relational tables with external Boolean
// text retrieval systems, implementing the paper end to end. Register
// tables and a text source, then run conjunctive queries in the paper's
// SQL syntax; the engine parses, classifies, optimizes over the PrL
// execution space, and executes — choosing among the §3 join methods with
// the §4 cost model and §5 probe-column selection.
//
//	eng := core.NewEngine()
//	eng.RegisterTable(students)
//	eng.RegisterTextSource("mercury", svc)
//	res, err := eng.Query(`select student.name, mercury.docid
//	                       from student, mercury
//	                       where 'belief update' in mercury.title
//	                       and student.name in mercury.author`)
package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"textjoin/internal/exec"
	"textjoin/internal/obs"
	"textjoin/internal/optimizer"
	"textjoin/internal/plan"
	"textjoin/internal/relation"
	"textjoin/internal/sqlparse"
	"textjoin/internal/stats"
	"textjoin/internal/texservice"
)

// Engine is a federated query engine over registered tables and one or
// more external text sources. It is not safe for concurrent registration;
// once registration is complete, any number of queries may run
// concurrently against it — per-query usage accounting is isolated
// through a context-carried meter (texservice.WithQueryMeter, installed
// automatically by the executor), the statistics estimator serializes its
// sampling internally, and the shared search cache deduplicates
// concurrent identical searches.
type Engine struct {
	catalog   *sqlparse.Catalog
	services  map[string]texservice.Service
	estimator map[string]*stats.Estimator
	opts      Options
}

// Options configures the engine.
type Options struct {
	// Optimizer carries the enumeration options (mode, correlation
	// model, relational tuple cost).
	Optimizer optimizer.Options
	// SampleSize bounds per-predicate sampling (§4.2); default 100.
	SampleSize int
	// Seed makes sampling deterministic; default 1.
	Seed int64
	// SearchCache, when positive, wraps every registered text source in
	// an LRU of that many search results, so repeated instantiations —
	// within one query or across queries — are answered locally (§3.1's
	// caching idea generalized). Entries are keyed on the collection
	// version and queries pinned behind it bypass the cache, so it stays
	// sound under live ingest.
	SearchCache int
	// ProbeCache, when positive, additionally wraps every registered text
	// source in a cross-query probe-result cache of that many entries,
	// keyed on normalized expressions so syntactic variants of the same
	// probe (a∧b vs b∧a) hit the same entry. Entries are keyed on the
	// collection version, so live ingest invalidates them on its way through.
	ProbeCache int
}

// DefaultOptions returns the engine defaults (PrL space, fully correlated
// cost model).
func DefaultOptions() Options {
	return Options{Optimizer: optimizer.DefaultOptions(), SampleSize: 100, Seed: 1}
}

// NewEngine creates an empty engine with default options.
func NewEngine() *Engine { return NewEngineWith(DefaultOptions()) }

// NewEngineWith creates an empty engine with the given options.
func NewEngineWith(opts Options) *Engine {
	if opts.SampleSize <= 0 {
		opts.SampleSize = 100
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	return &Engine{
		catalog: &sqlparse.Catalog{
			Tables: map[string]*relation.Table{},
			Text:   map[string]*sqlparse.TextSourceInfo{},
		},
		services:  map[string]texservice.Service{},
		estimator: map[string]*stats.Estimator{},
		opts:      opts,
	}
}

// RegisterTable adds a relational table under its own name.
func (e *Engine) RegisterTable(t *relation.Table) error {
	if t == nil || t.Name == "" {
		return fmt.Errorf("core: table must have a name")
	}
	if _, dup := e.catalog.Tables[t.Name]; dup {
		return fmt.Errorf("core: table %q already registered", t.Name)
	}
	if _, dup := e.catalog.Text[t.Name]; dup {
		return fmt.Errorf("core: name %q already used by a text source", t.Name)
	}
	e.catalog.Tables[t.Name] = t
	return nil
}

// RegisterTextSource adds an external text source under the given name.
// Its fields are discovered from the service configuration via the fields
// argument; pass the searchable field names.
func (e *Engine) RegisterTextSource(name string, svc texservice.Service, fields ...string) error {
	if name == "" {
		return fmt.Errorf("core: text source must have a name")
	}
	if len(fields) == 0 {
		return fmt.Errorf("core: text source %q needs at least one field", name)
	}
	if _, dup := e.catalog.Text[name]; dup {
		return fmt.Errorf("core: text source %q already registered", name)
	}
	if _, dup := e.catalog.Tables[name]; dup {
		return fmt.Errorf("core: name %q already used by a table", name)
	}
	sorted := append([]string(nil), fields...)
	sort.Strings(sorted)
	e.catalog.Text[name] = &sqlparse.TextSourceInfo{Name: name, Fields: sorted}
	if e.opts.SearchCache > 0 {
		svc = texservice.NewCached(svc, e.opts.SearchCache)
	}
	if e.opts.ProbeCache > 0 {
		svc = texservice.NewProbeCache(svc, e.opts.ProbeCache)
	}
	e.services[name] = svc
	e.estimator[name] = stats.New(svc,
		stats.WithSampleSize(e.opts.SampleSize), stats.WithSeed(e.opts.Seed))
	return nil
}

// Catalog exposes the engine's catalog (read-only use).
func (e *Engine) Catalog() *sqlparse.Catalog { return e.catalog }

// TextService returns the service registered under the given source name
// as the engine uses it — including the cache decorator when SearchCache
// is enabled — or nil if no such source exists. Serving layers use it to
// read cache statistics and shared meters.
func (e *Engine) TextService(name string) texservice.Service { return e.services[name] }

// Result is the outcome of one query.
type Result struct {
	// Table holds the result rows with qualified column names.
	Table *relation.Table
	// Plan is the executed physical plan.
	Plan plan.Node
	// EstCost is the optimizer's cost estimate (simulated seconds).
	EstCost float64
	// Usage is the text-service consumption of the execution.
	Usage texservice.Usage
	// Probes is the number of probe round trips sent; BatchRounds how
	// many of those were batched (multi-binding) searches.
	Probes      int
	BatchRounds int
	// Batches is the number of column batches the relational operators
	// emitted.
	Batches int
	// Partial reports a best-effort answer: a text source lost part of
	// its collection (a federation shard) during the run, so rows may be
	// missing.
	Partial bool
	// OptimizeTime and ExecuteTime are wall-clock durations.
	OptimizeTime, ExecuteTime time.Duration
	// Analyze holds the EXPLAIN ANALYZE tree (per-node estimates next to
	// actuals) when the run's context carried an exec.Analysis; nil
	// otherwise.
	Analyze *exec.AnalyzeNode
}

// Query parses, optimizes and executes a conjunctive query.
func (e *Engine) Query(src string) (*Result, error) {
	return e.QueryContext(context.Background(), src)
}

// QueryContext is Query bounded by a context: cancellation or deadline
// expiry aborts the text-service calls the execution issues.
func (e *Engine) QueryContext(ctx context.Context, src string) (*Result, error) {
	pl, err := e.PrepareContext(ctx, src)
	if err != nil {
		return nil, err
	}
	return pl.RunContext(ctx)
}

// Prepared is an optimized query ready to execute (possibly repeatedly).
type Prepared struct {
	engine   *Engine
	analyzed *sqlparse.Analyzed
	plan     plan.Node
	estCost  float64
	optTime  time.Duration
	services map[string]texservice.Service // per text source
}

// Prepare parses, analyzes and optimizes a query without executing it.
func (e *Engine) Prepare(src string) (*Prepared, error) {
	return e.PrepareContext(context.Background(), src)
}

// PrepareContext is Prepare under a context: when the context carries an
// obs recorder, the parse, analyze and optimize phases each get a span,
// with the optimizer's per-candidate costing nested under "optimize".
func (e *Engine) PrepareContext(ctx context.Context, src string) (*Prepared, error) {
	_, psp := obs.StartSpan(ctx, "parse")
	q, err := sqlparse.Parse(src)
	psp.End()
	if err != nil {
		return nil, err
	}
	_, asp := obs.StartSpan(ctx, "analyze")
	a, err := sqlparse.Analyze(q, e.catalog)
	asp.End()
	if err != nil {
		return nil, err
	}
	services := map[string]texservice.Service{}
	estimators := map[string]*stats.Estimator{}
	for _, part := range a.Text {
		services[part.Source] = e.services[part.Source]
		estimators[part.Source] = e.estimator[part.Source]
	}
	start := time.Now()
	octx, osp := obs.StartSpan(ctx, "optimize")
	o, err := optimizer.NewMulti(a, e.catalog, services, estimators, e.opts.Optimizer)
	if err != nil {
		osp.End()
		return nil, err
	}
	res, err := o.OptimizeContext(octx)
	if err != nil {
		osp.End()
		return nil, err
	}
	if osp != nil {
		osp.SetAttr(obs.F64("est_cost", res.EstCost), obs.Str("mode", e.opts.Optimizer.Mode.String()))
		osp.End()
	}
	// Post-optimization rewrites: push residual filters into scans and
	// restrict scans to referenced columns.
	pruned := plan.Prune(res.Plan, func(name string) (*relation.Schema, bool) {
		t, ok := e.catalog.Tables[name]
		if !ok {
			return nil, false
		}
		return t.Schema.Qualify(t.Name), true
	})
	return &Prepared{
		engine:   e,
		analyzed: a,
		plan:     pruned,
		estCost:  res.EstCost,
		optTime:  time.Since(start),
		services: services,
	}, nil
}

// Plan returns the optimized physical plan.
func (p *Prepared) Plan() plan.Node { return p.plan }

// Explain renders the plan.
func (p *Prepared) Explain() string { return plan.String(p.plan) }

// EstCost returns the optimizer's estimate.
func (p *Prepared) EstCost() float64 { return p.estCost }

// Analyzed exposes the classified query.
func (p *Prepared) Analyzed() *sqlparse.Analyzed { return p.analyzed }

// Run executes the prepared plan.
func (p *Prepared) Run() (*Result, error) {
	return p.RunContext(context.Background())
}

// RunContext executes the prepared plan under a context; cancellation or
// deadline expiry aborts the run's text-service calls. When a text source
// supports snapshot pinning (a live-ingest backend), the run is pinned:
// every search and retrieve the plan issues sees one consistent version of
// the index even while concurrent ingest advances it. The version is the
// one current at the run's first text read, not at this call — a write
// acked while the relational side is still scanning is visible, and the
// run cannot fall behind the collection (and lose its cache access)
// before it has read anything.
func (p *Prepared) RunContext(ctx context.Context) (*Result, error) {
	for _, svc := range p.services {
		ctx = svc.PinSnapshot(ctx)
	}
	ex := &exec.Executor{Cat: p.engine.catalog, Svc: inertService{}, Services: p.services}
	ectx, esp := obs.StartSpan(ctx, "execute")
	start := time.Now()
	table, st, err := ex.Run(ectx, p.plan)
	if esp != nil {
		esp.SetAttr(obs.F64("text_cost", st.Usage.Cost), obs.Int("probes", st.Probes))
		esp.End()
	}
	if err != nil {
		return nil, err
	}
	res := &Result{
		Table:        table,
		Plan:         p.plan,
		EstCost:      p.estCost,
		Usage:        st.Usage,
		Probes:       st.Probes,
		BatchRounds:  st.BatchRounds,
		Batches:      st.Batches,
		Partial:      st.Partial,
		OptimizeTime: p.optTime,
		ExecuteTime:  time.Since(start),
	}
	if an := exec.AnalysisFrom(ctx); an != nil {
		res.Analyze = an.Tree(p.plan)
	}
	return res, nil
}
