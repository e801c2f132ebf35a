// Package telemetry retains what each completed query actually did —
// normalized SQL shape, per-node estimated-vs-actual rows and cost, probe
// selectivities and fanouts, hedge and failover counts — in a bounded
// in-memory sink with optional JSONL file backing. The records close the
// loop the ROADMAP's feedback-driven-statistics item needs: EXPLAIN
// ANALYZE already computes the est-vs-act comparison per plan node but
// discarded it at render time; the sink keeps it, aggregates observed
// predicate behavior per (table, column, field), and exports it as
// observed fanouts a stats.Estimate can be built from. Nothing feeds them
// back into the estimator yet; /telemetry serves them.
package telemetry

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"
	"unicode"
)

// NodeStats is one plan operator's estimate next to its actuals, flattened
// from the EXPLAIN ANALYZE tree (costs cumulative over the subtree, as in
// the tree itself).
type NodeStats struct {
	Op      string  `json:"op"`
	Depth   int     `json:"depth"`
	EstCard float64 `json:"est_card"`
	ActRows int     `json:"act_rows"`
	EstCost float64 `json:"est_cost"`
	ActCost float64 `json:"act_cost"`
}

// PredicateStats is one foreign predicate's observed behavior in one
// query: how many input rows probed it and how many joined rows came out.
type PredicateStats struct {
	Source string `json:"source"`
	Table  string `json:"table"`
	Column string `json:"column"` // qualified, e.g. "student.name"
	Field  string `json:"field"`
	Method string `json:"method"`
	// InRows/OutRows are the text join's input and output cardinalities;
	// OutRows/InRows is the observed per-tuple fanout the estimator's f_i
	// models. EstFanout is the optimizer's implied prediction.
	InRows    int     `json:"in_rows"`
	OutRows   int     `json:"out_rows"`
	Fanout    float64 `json:"fanout"`
	EstFanout float64 `json:"est_fanout"`
}

// Record is one completed query's telemetry.
type Record struct {
	Time     time.Time `json:"time"`
	TraceID  string    `json:"trace_id,omitempty"`
	Shape    string    `json:"shape"` // normalized SQL
	SQL      string    `json:"sql"`
	Outcome  string    `json:"outcome"`
	Error    string    `json:"error,omitempty"`
	Elapsed  int64     `json:"elapsed_ns"`
	EstCost  float64   `json:"est_cost"`
	ActCost  float64   `json:"act_cost"`
	Rows     int       `json:"rows"`
	Probes   int       `json:"probes"`
	Batches  int       `json:"batch_rounds"`
	Hedges   int       `json:"hedges"`
	Retries  int       `json:"retries"`
	CritCost float64   `json:"crit_cost"`

	Nodes      []NodeStats      `json:"nodes,omitempty"`
	Predicates []PredicateStats `json:"predicates,omitempty"`
}

// SinkStats counts the sink's activity.
type SinkStats struct {
	Retained  int    `json:"retained"` // records currently in the ring
	Appended  uint64 `json:"appended"`
	Evicted   uint64 `json:"evicted"`
	FileLines uint64 `json:"file_lines"` // records written to the backing file
	FileError string `json:"file_error,omitempty"`
}

// Sink retains the most recent records in a fixed-capacity ring and
// optionally appends each record as one JSON line to a backing file, so
// the learned-statistics loop can survive a restart. Safe for concurrent
// use.
type Sink struct {
	mu        sync.Mutex
	capacity  int
	ring      []*Record
	next      int
	appended  uint64
	evicted   uint64
	fileLines uint64
	w         *bufio.Writer
	f         *os.File
	fileErr   error
}

// NewSink builds a sink retaining up to capacity records in memory.
func NewSink(capacity int) *Sink {
	if capacity < 1 {
		capacity = 1
	}
	return &Sink{capacity: capacity, ring: make([]*Record, capacity)}
}

// SetFile attaches a JSONL backing file (opened append-only; created if
// missing). Each record appended thereafter is also written as one JSON
// line. Call Close to flush.
func (s *Sink) SetFile(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.f = f
	s.w = bufio.NewWriter(f)
	s.mu.Unlock()
	return nil
}

// Append adds one record.
func (s *Sink) Append(r Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.appended++
	if s.ring[s.next] != nil {
		s.evicted++
	}
	cp := r
	s.ring[s.next] = &cp
	s.next = (s.next + 1) % s.capacity
	if s.w != nil && s.fileErr == nil {
		line, err := json.Marshal(&cp)
		if err == nil {
			_, err = s.w.Write(append(line, '\n'))
		}
		if err != nil {
			// Remember the first failure and stop writing; telemetry must
			// never fail a query.
			s.fileErr = err
			return
		}
		s.fileLines++
		s.fileErr = s.w.Flush()
	}
}

// Records returns the newest retained records, newest first, at most
// limit entries (limit <= 0 means all).
func (s *Sink) Records(limit int) []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	if limit <= 0 || limit > s.capacity {
		limit = s.capacity
	}
	out := make([]Record, 0, limit)
	for k := 0; k < s.capacity && len(out) < limit; k++ {
		i := (s.next - 1 - k + 2*s.capacity) % s.capacity
		if s.ring[i] == nil {
			break
		}
		out = append(out, *s.ring[i])
	}
	return out
}

// Stats reports the sink's counters.
func (s *Sink) Stats() SinkStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	retained := 0
	for _, r := range s.ring {
		if r != nil {
			retained++
		}
	}
	st := SinkStats{Retained: retained, Appended: s.appended, Evicted: s.evicted, FileLines: s.fileLines}
	if s.fileErr != nil {
		st.FileError = s.fileErr.Error()
	}
	return st
}

// Close flushes and closes the backing file, if any.
func (s *Sink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.w != nil {
		err = s.w.Flush()
		s.w = nil
	}
	if s.f != nil {
		if cerr := s.f.Close(); err == nil {
			err = cerr
		}
		s.f = nil
	}
	return err
}

// PredicateFeedback is the aggregated observation for one predicate key,
// averaged over every retained record that probed it.
type PredicateFeedback struct {
	Table   string  `json:"table"`
	Column  string  `json:"column"`
	Field   string  `json:"field"`
	Queries int     `json:"queries"`
	Fanout  float64 `json:"fanout"` // mean observed per-tuple fanout
}

// Feedback aggregates the retained records' predicate observations per
// (table, column, field), weighting each query's fanout by its probed
// input rows so large joins dominate the mean.
func (s *Sink) Feedback() []PredicateFeedback {
	type acc struct {
		queries int
		inRows  float64
		outRows float64
	}
	byKey := map[[3]string]*acc{}
	var order [][3]string
	for _, r := range s.Records(0) {
		for _, p := range r.Predicates {
			if p.InRows <= 0 {
				continue
			}
			k := [3]string{p.Table, p.Column, p.Field}
			a := byKey[k]
			if a == nil {
				a = &acc{}
				byKey[k] = a
				order = append(order, k)
			}
			a.queries++
			a.inRows += float64(p.InRows)
			a.outRows += float64(p.OutRows)
		}
	}
	out := make([]PredicateFeedback, 0, len(order))
	for _, k := range order {
		a := byKey[k]
		out = append(out, PredicateFeedback{
			Table: k[0], Column: k[1], Field: k[2],
			Queries: a.queries, Fanout: a.outRows / a.inRows,
		})
	}
	return out
}

// NormalizeSQL reduces a query to its shape: whitespace collapsed, case
// folded outside literals, and string/numeric literals replaced by '?' so
// repeated parameterizations of one query normalize identically — the key
// the plan cache and learned statistics group by.
func NormalizeSQL(sql string) string {
	var b strings.Builder
	b.Grow(len(sql))
	i := 0
	space := false
	emit := func(r rune) {
		if space && b.Len() > 0 {
			b.WriteByte(' ')
		}
		space = false
		b.WriteRune(r)
	}
	for i < len(sql) {
		c := sql[i]
		switch {
		case c == '\'' || c == '"':
			// Quoted literal: skip to the closing quote (doubled quotes
			// escape themselves).
			q := c
			i++
			for i < len(sql) {
				if sql[i] == q {
					if i+1 < len(sql) && sql[i+1] == q {
						i += 2
						continue
					}
					i++
					break
				}
				i++
			}
			emit('?')
		case c >= '0' && c <= '9' && (i == 0 || !isIdentChar(sql[i-1])):
			// A digit run starting an independent token is a numeric
			// literal; digits inside an identifier ("t1") are kept.
			for i < len(sql) && (sql[i] >= '0' && sql[i] <= '9' || sql[i] == '.') {
				i++
			}
			emit('?')
		case unicode.IsSpace(rune(c)):
			space = true
			i++
		default:
			emit(unicode.ToLower(rune(c)))
			i++
		}
	}
	return b.String()
}

func isIdentChar(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}
