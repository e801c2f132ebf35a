// Package stats implements the paper's §4.2: estimating predicate
// selectivity s_i and fanout f_i by sampling. Terms are sampled from a
// relation column and probed against the text service to learn the
// fraction that occur in the target field (selectivity) and the average
// number of matching documents (fanout). Estimates are cached so the
// sampling cost is amortized over queries with the same predicate, as the
// paper prescribes.
package stats

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"textjoin/internal/relation"
	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
	"textjoin/internal/value"
)

// Estimate carries the sampled statistics of one (column, field) pair.
type Estimate struct {
	// Sel is s_i: the fraction of sampled terms occurring in the field of
	// at least one document.
	Sel float64
	// Fanout is f_i: the mean number of matching documents per sampled
	// term, unconditional (non-matching terms count as zero) — the
	// definition the V_{n,J} formula expects.
	Fanout float64
	// CondFanout is the mean among matching terms only (reported for
	// diagnostics; Sel × CondFanout = Fanout).
	CondFanout float64
	// Samples is the number of distinct terms sampled.
	Samples int
	// Terms is the number of basic search terms a typical instantiation
	// of this predicate uses (the mean over the sample, rounded up): 1
	// for single-word values, more for phrase values.
	Terms int
	// TermsMax is the largest term count any sampled instantiation used.
	// Batched probing packs bindings by their actual term counts, so its
	// capacity estimates use this conservative maximum, not the mean.
	TermsMax int
}

// SelectionStats carries the statistics of a pure text selection.
type SelectionStats struct {
	// Fanout is the number of documents matching the selection.
	Fanout float64
	// Postings is the inverted-list length processed to evaluate it.
	Postings float64
}

// Estimator samples and caches statistics against one text service. It is
// safe for concurrent use: a mutex guards the caches and the sampling RNG,
// and is held across a predicate's whole sampling pass so concurrent
// queries needing the same estimate never duplicate the probe traffic —
// the second caller finds the cache filled when it acquires the lock.
type Estimator struct {
	svc        texservice.Service
	sampleSize int
	useExport  bool

	mu        sync.Mutex
	rng       *rand.Rand
	predCache map[string]Estimate
	selCache  map[string]SelectionStats
}

// Option configures an Estimator.
type Option func(*Estimator)

// WithSampleSize bounds the number of distinct terms probed per predicate
// (default 50).
func WithSampleSize(n int) Option {
	return func(e *Estimator) { e.sampleSize = n }
}

// WithSeed makes the sampling deterministic for a given seed (default 1).
func WithSeed(seed int64) Option {
	return func(e *Estimator) { e.rng = rand.New(rand.NewSource(seed)) }
}

// WithStatsExport uses the text system's exported term statistics
// (texservice.StatsProvider) instead of probe searches when the service
// offers them — the §8 extension that "eliminates the need for sending
// all single-column probes". Sampling falls back to probing against
// services that refuse them with texservice.ErrNoStats.
func WithStatsExport() Option {
	return func(e *Estimator) { e.useExport = true }
}

// New returns an estimator probing the given service.
func New(svc texservice.Service, opts ...Option) *Estimator {
	e := &Estimator{
		svc:        svc,
		sampleSize: 50,
		rng:        rand.New(rand.NewSource(1)),
		predCache:  map[string]Estimate{},
		selCache:   map[string]SelectionStats{},
	}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Predicate estimates s and f for "column in field" over the given table.
// Results are cached by (table name, column, field).
func (e *Estimator) Predicate(tbl *relation.Table, column, field string) (Estimate, error) {
	key := tbl.Name + "\x00" + column + "\x00" + field
	e.mu.Lock()
	defer e.mu.Unlock()
	if est, ok := e.predCache[key]; ok {
		return est, nil
	}
	vals, err := tbl.Column(column)
	if err != nil {
		return Estimate{}, err
	}
	// Distinct values, first-seen order.
	seen := map[string]bool{}
	var distinct []value.Value
	for _, v := range vals {
		k := v.Key()
		if !seen[k] {
			seen[k] = true
			distinct = append(distinct, v)
		}
	}
	if len(distinct) == 0 {
		return Estimate{}, fmt.Errorf("stats: column %s.%s has no values", tbl.Name, column)
	}
	// Sample without replacement.
	sample := distinct
	if len(distinct) > e.sampleSize {
		perm := e.rng.Perm(len(distinct))
		sample = make([]value.Value, e.sampleSize)
		for i := 0; i < e.sampleSize; i++ {
			sample[i] = distinct[perm[i]]
		}
	}

	useExport := e.useExport

	matched := 0
	totalDocs := 0
	totalTerms := 0
	maxTerms := 0
	for _, v := range sample {
		expr, err := textidx.MakeExactPred(field, v.Text())
		if err != nil {
			totalTerms++ // count unsearchable values as single terms
			if maxTerms < 1 {
				maxTerms = 1
			}
			continue // they match nothing, so contribute zero docs
		}
		totalTerms += expr.TermCount()
		if tc := expr.TermCount(); tc > maxTerms {
			maxTerms = tc
		}
		var freq int
		if useExport {
			freq, err = e.svc.TermDocFrequency(context.Background(), field, v.Text())
			if errors.Is(err, texservice.ErrNoStats) {
				// The service does not export statistics: sample by
				// probing.
				useExport = false
			} else if err != nil {
				return Estimate{}, err
			}
		}
		if !useExport {
			res, err := e.svc.Search(context.Background(), expr, texservice.FormShort)
			if err != nil {
				return Estimate{}, err
			}
			freq = len(res.Hits)
		}
		if freq > 0 {
			matched++
			totalDocs += freq
		}
	}
	est := Estimate{Samples: len(sample)}
	est.Sel = float64(matched) / float64(len(sample))
	est.Fanout = float64(totalDocs) / float64(len(sample))
	if matched > 0 {
		est.CondFanout = float64(totalDocs) / float64(matched)
	}
	est.Terms = (totalTerms + len(sample) - 1) / len(sample) // ceil of the mean
	est.TermsMax = maxTerms
	e.predCache[key] = est
	return est, nil
}

// Selection measures a text selection's fanout and processing work with a
// single short-form search, cached by the expression's rendering.
func (e *Estimator) Selection(sel textidx.Expr) (SelectionStats, error) {
	key := sel.String()
	e.mu.Lock()
	defer e.mu.Unlock()
	if st, ok := e.selCache[key]; ok {
		return st, nil
	}
	res, err := e.svc.Search(context.Background(), sel, texservice.FormShort)
	if err != nil {
		return SelectionStats{}, err
	}
	st := SelectionStats{Fanout: float64(len(res.Hits)), Postings: float64(res.Postings)}
	e.selCache[key] = st
	return st, nil
}
