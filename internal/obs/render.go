package obs

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// SpanSnapshot is an immutable copy of a span subtree, suitable for JSON
// encoding (the queryd /analyze and /trace endpoints), text dumps (the
// slow-query log), and the wire (textserve piggybacks its server-side
// subtree on each reply). Attribute values are rendered as strings so the
// JSON shape is stable regardless of the attribute's native type.
//
// Snapshots carry no absolute timestamps: StartNs is the span's start
// offset relative to its *parent's* start, and DurationNs is a length.
// That makes a snapshot shipped across processes immune to clock skew —
// the client grafts a remote subtree under its own stub span and every
// offset stays internally consistent, anchored at the stub.
type SpanSnapshot struct {
	Name       string `json:"name"`
	StartNs    int64  `json:"start_ns,omitempty"`
	DurationNs int64  `json:"duration_ns"`
	// Remote names the process that produced the span ("" for spans
	// recorded in this process). Set by Span.AttachRemote when a backend's
	// subtree is grafted into the client trace.
	Remote   string         `json:"remote,omitempty"`
	Attrs    []AttrSnapshot `json:"attrs,omitempty"`
	Children []SpanSnapshot `json:"children,omitempty"`
}

// AttrSnapshot is one rendered attribute.
type AttrSnapshot struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Snapshot copies the span subtree. Open spans report elapsed-so-far
// durations. Safe to call while other goroutines are still appending
// children (they may or may not be included). The top snapshot's StartNs
// is zero; descendants carry offsets relative to their parent.
func (s *Span) Snapshot() SpanSnapshot {
	if s == nil {
		return SpanSnapshot{}
	}
	return s.snapshotRel(s.start)
}

// snapshotRel snapshots the subtree with StartNs measured from base (the
// parent span's start time).
func (s *Span) snapshotRel(base time.Time) SpanSnapshot {
	s.mu.Lock()
	snap := SpanSnapshot{Name: s.name, StartNs: s.start.Sub(base).Nanoseconds()}
	if s.ended {
		snap.DurationNs = s.dur.Nanoseconds()
	} else {
		snap.DurationNs = time.Since(s.start).Nanoseconds()
	}
	if len(s.attrs) > 0 {
		snap.Attrs = make([]AttrSnapshot, len(s.attrs))
		for i, a := range s.attrs {
			snap.Attrs[i] = AttrSnapshot{Key: a.Key, Value: a.Value()}
		}
	}
	kids := make([]*Span, len(s.children))
	copy(kids, s.children)
	var remotes []SpanSnapshot
	if len(s.remotes) > 0 {
		remotes = make([]SpanSnapshot, len(s.remotes))
		copy(remotes, s.remotes)
	}
	s.mu.Unlock()
	if len(kids)+len(remotes) > 0 {
		snap.Children = make([]SpanSnapshot, 0, len(kids)+len(remotes))
		for _, c := range kids {
			snap.Children = append(snap.Children, c.snapshotRel(s.start))
		}
		snap.Children = append(snap.Children, remotes...)
	}
	return snap
}

// SpanCount returns the number of spans in the snapshot tree.
func SpanCount(s SpanSnapshot) int {
	n := 1
	for _, c := range s.Children {
		n += SpanCount(c)
	}
	return n
}

// Dump writes an indented text rendering of the span tree, one span per
// line: name, duration, then key=value attributes. Spans grafted from
// another process carry a remote=<label> marker.
func Dump(w io.Writer, s *Span) {
	if s == nil {
		return
	}
	dumpSnap(w, s.Snapshot(), 0)
}

// DumpLimited renders at most maxSpans spans of the snapshot (depth-first
// order) and reports how many were suppressed. The slow-query log uses it
// to bound the memory and log volume one pathological trace can consume.
func DumpLimited(w io.Writer, snap SpanSnapshot, maxSpans int) (suppressed int) {
	budget := maxSpans
	dumpBudget(w, snap, 0, &budget)
	if total := SpanCount(snap); total > maxSpans {
		suppressed = total - maxSpans
		fmt.Fprintf(w, "... (%d spans truncated)\n", suppressed)
	}
	return suppressed
}

func dumpBudget(w io.Writer, s SpanSnapshot, depth int, budget *int) {
	if *budget <= 0 {
		return
	}
	*budget--
	dumpLine(w, s, depth)
	for _, c := range s.Children {
		dumpBudget(w, c, depth+1, budget)
	}
}

func dumpSnap(w io.Writer, s SpanSnapshot, depth int) {
	dumpLine(w, s, depth)
	for _, c := range s.Children {
		dumpSnap(w, c, depth+1)
	}
}

func dumpLine(w io.Writer, s SpanSnapshot, depth int) {
	fmt.Fprintf(w, "%s%s  %.3fms", strings.Repeat("  ", depth), s.Name,
		float64(s.DurationNs)/1e6)
	if s.Remote != "" {
		fmt.Fprintf(w, " remote=%s", s.Remote)
	}
	for _, a := range s.Attrs {
		fmt.Fprintf(w, " %s=%s", a.Key, a.Value)
	}
	fmt.Fprintln(w)
}
