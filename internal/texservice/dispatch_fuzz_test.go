package texservice

import (
	"encoding/json"
	"testing"
	"time"
)

// FuzzServerDispatch: any request that decodes as a wireRequest gets a
// reply (or an error reply) from a server over a read-only Local — the
// server never panics and never wedges a goroutine on what a client sent.
// Search queries reach textidx.Parse verbatim, so the parser's hang inputs
// seed the corpus.
func FuzzServerDispatch(f *testing.F) {
	local, err := NewLocal(testIndex(f), WithMaxTerms(8))
	if err != nil {
		f.Fatal(err)
	}
	srv := NewServer(local)
	for _, seed := range []string{
		`{"op":"search","query":"title='text' and not author='kao'","form":"short"}`,
		`{"op":"search","query":"'belief' near2 'update'","form":"long"}`,
		`{"op":"batchsearch","queries":["title='text'","author='gra?'"],"form":"short"}`,
		`{"op":"batchsearch","queries":[]}`,
		`{"op":"search","query":"é"}`,
		"{\"op\":\"search\",\"query\":\"\xcc:pws\"}",
		"{\"op\":\"batchsearch\",\"queries\":[\"title='x'\",\"\xff\"]}",
		`{"op":"retrieve","id":1}`,
		`{"op":"retrieve","id":-7}`,
		`{"op":"docfreq","field":"title","term":"belief update"}`,
		`{"op":"ingest","ingest":[{"kind":"put","ext":"x"}]}`,
		`{"op":"version"}`,
		`{"op":"info"}`,
		`{"op":"unknown"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req wireRequest
		if json.Unmarshal(body, &req) != nil {
			return
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.dispatch(bg, req)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("dispatch(%s) did not return within 5s", body)
		}
	})
}
