package texservice

import (
	"bytes"
	"net"
	"slices"
	"strings"
	"testing"

	"textjoin/internal/textidx"
)

// FuzzSearchReply: whatever bytes come back from a server for a search,
// the client's decoder (readMessage, then searchResults, the path
// Remote.search takes) returns answers or an error and never panics. It
// never accepts a hit whose values do not line up with its answer's
// fields, and every answer it accepts can be matched: each field's token
// index lists every hit under every token of the hit's value.
func FuzzSearchReply(f *testing.F) {
	local, err := NewLocal(testIndex(f), WithMaxTerms(8))
	if err != nil {
		f.Fatal(err)
	}
	srv := NewServer(local)
	frame := func(resp wireResponse) []byte {
		var buf bytes.Buffer
		if err := writeMessage(&buf, resp); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, req := range []wireRequest{
		{Op: "search", Query: "title='text'", Form: "short"},
		{Op: "search", Query: "title='text'", Form: "long"},
		{Op: "search", Query: "title='nosuchword'"},
		{Op: "batchsearch", Queries: []string{"title='text'", "author='gravano'", "year='1993'"}, Form: "short"},
		{Op: "info"},
	} {
		resp, _ := srv.dispatch(bg, req)
		f.Add(frame(resp))
	}
	for _, body := range []string{
		`{"fields":["title"],"hits":[{"id":1,"ext":"d1","vals":["a","b"]}]}`,
		`{"fields":["title","author"],"hits":[{"id":1,"ext":"d1"}]}`,
		`{"batch":[{"fields":["title"],"hits":[{"id":0,"ext":"x","vals":["Ünï cödé, x86"]}]},{"fields":null,"hits":[]}]}`,
		`{"batch":[{"fields":["title"],"hits":[{"id":0,"ext":"x","vals":[]}]}]}`,
		`{"hits":[{"id":-5,"ext":"","vals":null}]}`,
	} {
		f.Add(append([]byte{0, 0, 0, byte(len(body))}, body...))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var resp wireResponse
		if readMessage(bytes.NewReader(data), &resp) != nil {
			return
		}
		for _, batch := range []bool{false, true} {
			replies, n := resp.Batch, len(resp.Batch)
			if !batch {
				replies, n = []wireBatchResult{{Fields: resp.Fields, Hits: resp.Hits}}, 1
			}
			aligned := true
			for _, b := range replies {
				for _, h := range b.Hits {
					aligned = aligned && len(h.Vals) == len(b.Fields)
				}
			}
			out, err := searchResults(&resp, batch, n)
			if err != nil {
				continue
			}
			if !aligned {
				t.Fatalf("accepted a hit whose values do not line up with its fields: %q", data)
			}
			for _, res := range out {
				for _, field := range res.Fields {
					ix, col := res.TokenIndex(field), res.Column(field)
					for h, hit := range res.Hits {
						for _, tok := range textidx.Tokenize(hit.Value(col)) {
							if !slices.Contains(ix.Hits(tok), int32(h)) {
								t.Fatalf("token index of %q: hit %d missing under %q", field, h, tok)
							}
						}
					}
				}
			}
		}
	})
}

// TestDialRefusesOtherHitWireVersion: a server whose info reply does not
// advertise this build's hit-wire version (here an older server, which
// advertises none: version 0) answers searches in a shape the client
// cannot decode, so Dial fails and names both versions.
func TestDialRefusesOtherHitWireVersion(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var req wireRequest
		if readMessage(conn, &req) != nil {
			return
		}
		writeMessage(conn, wireResponse{NumDocs: 3, MaxTerms: 70, Short: []string{"title"}})
	}()
	r, err := Dial(ln.Addr().String(), nil)
	if err == nil {
		r.Close()
		t.Fatal("Dial accepted a server without the columnar hit wire")
	}
	if msg := err.Error(); !strings.Contains(msg, "hit-wire version 0") || !strings.Contains(msg, "this client speaks 1") {
		t.Fatalf("Dial error %q does not name both hit-wire versions", msg)
	}
}

// TestLongFormUnionOverTheWire: a long-form answer over documents with
// uneven fields carries the sorted union of their fields, with "" where
// a document lacks one, and arrives through a server and Remote exactly
// as Local built it.
func TestLongFormUnionOverTheWire(t *testing.T) {
	ix := textidx.NewIndex()
	ix.MustAdd(textidx.Document{ExtID: "a", Fields: map[string]string{"title": "text one", "author": "kao"}})
	ix.MustAdd(textidx.Document{ExtID: "b", Fields: map[string]string{"title": "text two", "abstract": "about text"}})
	ix.Freeze()
	local, err := NewLocal(ix)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(local)
	srv.Logf = t.Logf
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	remote, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	want := []string{"abstract", "author", "title"}
	wantVals := [][]string{{"", "kao", "text one"}, {"about text", "", "text two"}}
	for _, svc := range []Service{local, remote} {
		res, err := svc.Search(bg, textidx.Term{Field: "title", Word: "text"}, FormLong)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Fields, want) || len(res.Hits) != 2 {
			t.Fatalf("%T: fields %v, %d hits; want %v, 2 hits", svc, res.Fields, len(res.Hits), want)
		}
		for h, hit := range res.Hits {
			if !slices.Equal(hit.Values, wantVals[h]) {
				t.Fatalf("%T: hit %d values %q, want %q", svc, h, hit.Values, wantVals[h])
			}
		}
	}
}
