package bench

import (
	"textjoin/internal/core"
	"textjoin/internal/texservice"
	"textjoin/internal/workload"
)

// RepeatedEngine builds workload.NewRepeated(factRows, seed) and an engine
// serving it the way queryd and the repository benchmark configure one:
// PrL optimizer with batched probes, both caches at 256 entries. The
// Prepare benchmark and the cardinality-independence gate share it so
// that they measure the same setup.
func RepeatedEngine(factRows int, seed int64) (*core.Engine, *workload.Repeated, error) {
	w := workload.NewRepeated(factRows, seed)
	svc, err := texservice.NewLocal(w.Corpus.Index, texservice.WithShortFields("title", "author", "year"))
	if err != nil {
		return nil, nil, err
	}
	opts := core.DefaultOptions()
	opts.Optimizer.BatchProbe = true
	opts.SearchCache, opts.ProbeCache = 256, 256
	eng := core.NewEngineWith(opts)
	for _, err := range []error{
		eng.RegisterTable(w.Fact), eng.RegisterTable(w.Dim),
		eng.RegisterTextSource("mercury", svc, w.Corpus.Fields()...),
	} {
		if err != nil {
			return nil, nil, err
		}
	}
	return eng, w, nil
}
