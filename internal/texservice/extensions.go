package texservice

import (
	"context"
	"errors"
	"fmt"

	"textjoin/internal/textidx"
)

// This file implements the text-system features §8 of the paper proposes
// to make text systems better suited for loose integration:
//
//   - exported statistics ("the text system can help the optimizer by
//     making available statistics such as distribution of fanout of the
//     words in the vocabulary. Such information will eliminate the need
//     for sending all single-column probes"), and
//   - batched invocation ("if text systems provide the ability to accept
//     multiple queries in one invocation and can return answers in a
//     batched mode while maintaining the correspondence between each
//     query and its answers, then invocation and possibly transmission
//     costs for the queries will be reduced").
//
// Both are methods of every Service, as are the write path's Ingest and
// IndexVersion and the snapshot pins (ingest.go), so integration code
// calls them directly. A service that cannot offer one (a backend
// without it, or a decorator, federation or remote over such a backend)
// refuses the call with its sentinel — ErrNoBatch, ErrNoStats or
// ErrNoIngest — and callers degrade on that refusal. A refusal is an
// answer, not a failure: no layer retries it, fails over from it, ejects
// a replica for it or drops a shard over it (see Refused).

// ErrNoBatch is returned when a batched invocation reaches a service
// that does not support it.
var ErrNoBatch = errors.New("texservice: service does not support batched invocation")

// ErrNoStats is returned when a statistics request reaches a service
// that does not export statistics.
var ErrNoStats = errors.New("texservice: service does not export statistics")

// refusals are the sentinels a service answers "not supported" with.
var refusals = []error{ErrNoBatch, ErrNoStats, ErrNoIngest}

// Refused reports whether err is a capability refusal: the service
// answered that it does not support the call. Routing layers pass such
// an answer on as it is, without counting it as a failure.
func Refused(err error) bool {
	for _, r := range refusals {
		if errors.Is(err, r) {
			return true
		}
	}
	return false
}

// StatsProvider is the exported-statistics capability: the document
// frequency of a term can be fetched directly instead of being measured
// with a probe search. Implementations charge no search cost for it
// (catalog lookups are metadata traffic, not query processing).
type StatsProvider interface {
	// TermDocFrequency returns the number of documents whose field
	// contains the (single-word or phrase) term.
	TermDocFrequency(ctx context.Context, field, term string) (int, error)
}

// BatchSearcher is the batched-invocation capability: several searches
// travel in one invocation, and the answers come back in order. One
// invocation cost c_i is charged for the whole batch; processing and
// transmission are charged per query as usual.
type BatchSearcher interface {
	// BatchSearch evaluates the expressions in order. Results align with
	// the input: len(results) == len(exprs). The total term count across
	// the batch must respect MaxTerms.
	BatchSearch(ctx context.Context, exprs []textidx.Expr, form Form) ([]*Result, error)
}

// TermDocFrequency implements StatsProvider on the local service: it
// consults the latest state directly, charging nothing — the statistic
// export the paper wishes for. It never resolves a pinned view.
func (l *Local) TermDocFrequency(ctx context.Context, field, term string) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	c := l.read(context.Background())
	words := textidx.Tokenize(term)
	switch len(words) {
	case 0:
		return 0, nil
	case 1:
		return c.DocFrequency(field, words[0]), nil
	default:
		// Phrase frequencies need evaluation; do it without charging the
		// meter (metadata traffic).
		res, err := c.Eval(textidx.Phrase{Field: field, Words: words})
		if err != nil {
			return 0, err
		}
		return len(res.Docs), nil
	}
}

// BatchSearch implements BatchSearcher on the local service.
func (l *Local) BatchSearch(ctx context.Context, exprs []textidx.Expr, form Form) ([]*Result, error) {
	return l.search(ctx, l.batchSpan, exprs, form)
}

// TermLimitError reports a search exceeding the per-invocation term limit.
type TermLimitError struct {
	Terms, Limit int
}

func (e *TermLimitError) Error() string {
	return fmt.Sprintf("texservice: search uses %d terms, limit is %d", e.Terms, e.Limit)
}

// CheckTermLimit returns a *TermLimitError when the expressions of one
// invocation — a single search or a whole batch — together use more than
// limit basic search terms.
func CheckTermLimit(exprs []textidx.Expr, limit int) error {
	total := 0
	for _, e := range exprs {
		total += e.TermCount()
	}
	if total > limit {
		return &TermLimitError{Terms: total, Limit: limit}
	}
	return nil
}
