package texservice

import (
	"strings"
	"testing"

	"textjoin/internal/obs"
	"textjoin/internal/textidx"
)

// spanServer starts a TCP-served local backend and a dialed client for
// the span-return tests.
func spanServer(t *testing.T) (*Server, *Remote) {
	t.Helper()
	local, err := NewLocal(testIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(local)
	srv.Logf = t.Logf
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	remote, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })
	return srv, remote
}

// findSpan returns the first span in the tree with the given name.
func findSpan(s obs.SpanSnapshot, name string) (obs.SpanSnapshot, bool) {
	if s.Name == name {
		return s, true
	}
	for _, c := range s.Children {
		if hit, ok := findSpan(c, name); ok {
			return hit, true
		}
	}
	return obs.SpanSnapshot{}, false
}

// TestRemoteSpanReturn: with tracing on, each wire call comes back with
// the server's own span subtree grafted under the client call span,
// labeled with the dialed address — the tentpole's cross-process path.
func TestRemoteSpanReturn(t *testing.T) {
	_, remote := spanServer(t)
	if remote.spanVer != spanWireVersion {
		t.Fatalf("negotiated span version %d, want %d", remote.spanVer, spanWireVersion)
	}

	rec := obs.NewRecorder("query")
	ctx := obs.WithRecorder(bg, rec)
	if _, err := remote.Search(ctx, textidx.Term{Field: "title", Word: "text"}, FormShort); err != nil {
		t.Fatal(err)
	}
	if _, err := remote.Retrieve(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := remote.BatchSearch(ctx, []textidx.Expr{
		textidx.Term{Field: "title", Word: "text"},
		textidx.Term{Field: "author", Word: "gravano"},
	}, FormShort); err != nil {
		t.Fatal(err)
	}
	rec.Root().End()
	snap := rec.Root().Snapshot()

	for _, want := range []struct{ client, server, backend string }{
		{"remote.search", "textserve.search", "local.search"},
		{"remote.retrieve", "textserve.retrieve", "local.retrieve"},
		{"remote.batchsearch", "textserve.batchsearch", "local.batchsearch"},
	} {
		call, ok := findSpan(snap, want.client)
		if !ok {
			t.Fatalf("trace missing client span %s:\n%+v", want.client, snap)
		}
		srvSpan, ok := findSpan(call, want.server)
		if !ok {
			t.Errorf("call %s has no grafted server span %s", want.client, want.server)
			continue
		}
		if srvSpan.Remote != remote.addr {
			t.Errorf("server span remote = %q, want dialed addr %q", srvSpan.Remote, remote.addr)
		}
		if srvSpan.StartNs != 0 {
			t.Errorf("grafted root StartNs = %d, want 0 (skew-proof anchoring)", srvSpan.StartNs)
		}
		// The server's backend recorded real work under its root.
		if _, ok := findSpan(srvSpan, want.backend); !ok {
			t.Errorf("server subtree has no %s child: %+v", want.backend, srvSpan)
		}
	}
}

// TestRemoteSpanVersionZero: a client that negotiated span version 0 (an
// old server) never sets req.Spans, and the trace simply lacks remote
// subtrees — mixed-fleet interop, no errors.
func TestRemoteSpanVersionZero(t *testing.T) {
	_, remote := spanServer(t)
	remote.spanVer = 0 // pretend the server's info reply predated span return

	rec := obs.NewRecorder("query")
	ctx := obs.WithRecorder(bg, rec)
	if _, err := remote.Search(ctx, textidx.Term{Field: "title", Word: "text"}, FormShort); err != nil {
		t.Fatal(err)
	}
	rec.Root().End()
	snap := rec.Root().Snapshot()
	if _, ok := findSpan(snap, "textserve.search"); ok {
		t.Fatal("version-0 negotiation still returned server spans")
	}
	call, ok := findSpan(snap, "remote.search")
	if !ok || len(call.Children) != 0 {
		t.Fatalf("client span wrong without span return: %+v", call)
	}
}

// TestServerSpanGating: the server only records and returns spans when
// the request both asks and carries a trace ID, and error replies carry
// the span tree too (the failed call's server-side view matters most).
func TestServerSpanGating(t *testing.T) {
	local, err := NewLocal(testIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(local)

	if resp, _ := srv.handle(bg, wireRequest{Op: "search", Query: "title='text'"}); resp.Spans != nil {
		t.Fatal("server returned spans without being asked")
	}
	if resp, _ := srv.handle(bg, wireRequest{Op: "search", Query: "title='text'", Spans: true}); resp.Spans != nil {
		t.Fatal("server returned spans without a trace ID")
	}

	resp, _ := srv.handle(bg, wireRequest{Op: "search", Query: "title='text'", Spans: true, Trace: "q-1"})
	if resp.Spans == nil {
		t.Fatal("server returned no spans when asked")
	}
	if resp.SpanVer != spanWireVersion {
		t.Fatalf("reply span version %d, want %d", resp.SpanVer, spanWireVersion)
	}
	if resp.Spans.Name != "textserve.search" {
		t.Fatalf("server root span %q", resp.Spans.Name)
	}

	// Error reply: span tree present with the error recorded on the root.
	resp, _ = srv.handle(bg, wireRequest{Op: "search", Query: "(((", Spans: true, Trace: "q-2"})
	if resp.Error == "" {
		t.Fatal("bad query accepted")
	}
	if resp.Spans == nil {
		t.Fatal("error reply dropped the span tree")
	}
	found := false
	for _, a := range resp.Spans.Attrs {
		if a.Key == "err" && strings.Contains(a.Value, resp.Error) {
			found = true
		}
	}
	if !found {
		t.Fatalf("error reply's root span lacks the err attr: %+v", resp.Spans.Attrs)
	}
}

// TestWireSpanRoundtrip: the span snapshot survives the length-prefixed
// JSON framing byte-for-byte semantically (names, offsets, remote tags,
// nesting).
func TestWireSpanRoundtrip(t *testing.T) {
	in := wireResponse{
		SpanVer: spanWireVersion,
		Spans: &obs.SpanSnapshot{
			Name: "textserve.search", DurationNs: 5e6,
			Attrs: []obs.AttrSnapshot{{Key: "hits", Value: "3"}},
			Children: []obs.SpanSnapshot{
				{Name: "local.search", StartNs: 1e5, DurationNs: 4e6, Remote: "far:1"},
			},
		},
	}
	var buf strings.Builder
	if err := writeMessage(writerOnly{&buf}, in); err != nil {
		t.Fatal(err)
	}
	var out wireResponse
	if err := readMessage(strings.NewReader(buf.String()), &out); err != nil {
		t.Fatal(err)
	}
	if out.SpanVer != in.SpanVer {
		t.Fatalf("span version %d, want %d", out.SpanVer, in.SpanVer)
	}
	if out.Spans == nil || out.Spans.Name != "textserve.search" ||
		len(out.Spans.Children) != 1 || out.Spans.Children[0].Remote != "far:1" ||
		out.Spans.Children[0].StartNs != int64(1e5) {
		t.Fatalf("span tree mangled on the wire: %+v", out.Spans)
	}
	if len(out.Spans.Attrs) != 1 || out.Spans.Attrs[0].Value != "3" {
		t.Fatalf("attrs mangled: %+v", out.Spans.Attrs)
	}
}

// writerOnly adapts a strings.Builder to io.Writer for writeMessage.
type writerOnly struct{ w *strings.Builder }

func (w writerOnly) Write(p []byte) (int, error) { return w.w.Write(p) }
