package ingest

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
)

var bg = context.Background()

// baseIndex builds a small frozen corpus: r0..r(n-1) with rotating title
// words.
func baseIndex(t *testing.T, n int) *textidx.Index {
	t.Helper()
	ix := textidx.NewIndex()
	words := []string{"belief update", "sensor fusion", "belief revision", "query optimization"}
	for i := 0; i < n; i++ {
		ix.MustAdd(textidx.Document{
			ExtID: fmt.Sprintf("r%d", i),
			Fields: map[string]string{
				"title":  words[i%len(words)],
				"author": fmt.Sprintf("author%d", i%3),
			},
		})
	}
	ix.Freeze()
	return ix
}

func put(ext, title string) texservice.IngestOp {
	return texservice.IngestOp{Kind: texservice.IngestPut, ExtID: ext,
		Fields: map[string]string{"title": title, "author": "nobody"}}
}

func del(ext string) texservice.IngestOp {
	return texservice.IngestOp{Kind: texservice.IngestDelete, ExtID: ext}
}

// hit is one search hit with its full document.
type hit struct {
	ID  textidx.DocID
	Doc textidx.Document
}

// viewSearch is a search of v without shaping or charging: the view's
// visible matches, each with its document, and the postings charged.
func viewSearch(v *View, e textidx.Expr) ([]hit, int, error) {
	res, err := v.Eval(e)
	if err != nil {
		return nil, 0, err
	}
	hits := make([]hit, 0, len(res.Docs))
	for _, id := range res.Docs {
		doc, err := v.Doc(id)
		if err != nil {
			return nil, 0, err
		}
		hits = append(hits, hit{ID: id, Doc: doc})
	}
	return hits, res.Postings, nil
}

// searchExts runs a query against the latest view and returns the sorted
// external ids of the hits.
func searchExts(t *testing.T, s *Store, query string) []string {
	t.Helper()
	e, err := textidx.Parse(query, nil)
	if err != nil {
		t.Fatal(err)
	}
	hits, _, err := viewSearch(s.CurrentView(), e)
	if err != nil {
		t.Fatal(err)
	}
	var exts []string
	for _, h := range hits {
		exts = append(exts, h.Doc.ExtID)
	}
	sort.Strings(exts)
	return exts
}

func TestStorePutDeleteVisibility(t *testing.T) {
	s, err := Open(baseIndex(t, 4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := searchExts(t, s, "title='belief'"); len(got) != 2 {
		t.Fatalf("base search found %v", got)
	}
	if _, err := s.Apply(bg, []texservice.IngestOp{put("n1", "belief propagation")}); err != nil {
		t.Fatal(err)
	}
	if got := searchExts(t, s, "title='belief'"); len(got) != 3 {
		t.Fatalf("post-put search found %v", got)
	}
	if _, err := s.Apply(bg, []texservice.IngestOp{del("r0"), del("n1")}); err != nil {
		t.Fatal(err)
	}
	got := searchExts(t, s, "title='belief'")
	if len(got) != 1 || got[0] != "r2" {
		t.Fatalf("post-delete search found %v", got)
	}
	if n := s.CurrentView().NumDocs(); n != 3 {
		t.Fatalf("NumDocs = %d, want 3", n)
	}
}

// TestStoreUpdateReplacesDoc re-puts an existing external id: the old
// content must disappear, the new content must match, and retrieving the
// old docid must fail while the new one succeeds.
func TestStoreUpdateReplacesDoc(t *testing.T) {
	s, err := Open(baseIndex(t, 4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Apply(bg, []texservice.IngestOp{put("r0", "entirely new topic")}); err != nil {
		t.Fatal(err)
	}
	if got := searchExts(t, s, "title='entirely' and title='new'"); len(got) != 1 || got[0] != "r0" {
		t.Fatalf("updated doc not found: %v", got)
	}
	for _, ext := range searchExts(t, s, "title='belief' and title='update'") {
		if ext == "r0" {
			t.Fatal("old content of r0 still matches after update")
		}
	}
	v := s.CurrentView()
	if _, err := v.Doc(0); err == nil {
		t.Fatal("old docid of r0 still retrievable after update")
	}
	doc, err := v.Doc(textidx.DocID(4))
	if err != nil || doc.ExtID != "r0" {
		t.Fatalf("new docid of r0: %v, %v", doc, err)
	}
}

// TestStoreSnapshotIsolation pins a view, writes, and checks the pinned
// view still answers from the pre-write state while a fresh view sees the
// write.
func TestStoreSnapshotIsolation(t *testing.T) {
	s, err := Open(baseIndex(t, 4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	old := s.CurrentView()
	if _, err := s.Apply(bg, []texservice.IngestOp{put("n1", "belief networks"), del("r0")}); err != nil {
		t.Fatal(err)
	}
	e, err := textidx.Parse("title='belief'", nil)
	if err != nil {
		t.Fatal(err)
	}
	oldHits, _, err := viewSearch(old, e)
	if err != nil {
		t.Fatal(err)
	}
	var oldExts []string
	for _, h := range oldHits {
		oldExts = append(oldExts, h.Doc.ExtID)
	}
	sort.Strings(oldExts)
	if fmt.Sprint(oldExts) != "[r0 r2]" {
		t.Fatalf("pinned view sees %v, want the pre-write state [r0 r2]", oldExts)
	}
	if got := searchExts(t, s, "title='belief'"); fmt.Sprint(got) != "[n1 r2]" {
		t.Fatalf("fresh view sees %v, want [n1 r2]", got)
	}
}

// TestViewDocFrequencyOneWord: a view's DocFrequency counts one word — the
// base's count, which keeps a deleted base document until a compaction
// folds the delete, plus the visible delta documents — and matches the
// model exactly once the deletes are folded. A term of several words is
// not a word and counts nothing here; Live's TermDocFrequency evaluates
// it as a phrase instead.
func TestViewDocFrequencyOneWord(t *testing.T) {
	s, err := Open(baseIndex(t, 8), Options{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	live := NewLive(s)
	step := func(name string, ops []texservice.IngestOp, want map[string]int, phrase int) {
		t.Helper()
		if len(ops) > 0 {
			if _, err := s.Apply(bg, ops); err != nil {
				t.Fatal(err)
			}
		} else if err := s.Compact(bg); err != nil {
			t.Fatal(err)
		}
		v := s.CurrentView()
		for fw, n := range want {
			field, word, _ := strings.Cut(fw, ":")
			if df := v.DocFrequency(field, word); df != n {
				t.Errorf("%s: DocFrequency(%s, %q) = %d, want %d", name, field, word, df, n)
			}
		}
		if df := v.DocFrequency("title", "belief update"); df != 0 {
			t.Errorf("%s: DocFrequency of a phrase = %d, want 0", name, df)
		}
		if df, err := live.TermDocFrequency(bg, "title", "belief update"); err != nil || df != phrase {
			t.Errorf("%s: Live phrase frequency = %d, %v; want %d", name, df, err, phrase)
		}
	}
	// The base: r0..r7, titles "belief update", "sensor fusion", "belief
	// revision", "query optimization" in turn, authors author0..author2.
	step("puts", []texservice.IngestOp{put("n1", "belief update again"), put("n2", "sensor fusion")},
		map[string]int{"title:belief": 5, "title:Fusion": 3, "author:nobody": 2, "title:absent": 0}, 3)
	// r0 and the old r1 stay in the base's counts until the compaction.
	step("deletes", []texservice.IngestOp{del("r0"), del("n2"), put("r1", "belief fusion")},
		map[string]int{"title:belief": 6, "title:Fusion": 3, "author:nobody": 2, "title:absent": 0}, 2)
	step("compaction", nil,
		map[string]int{"title:belief": 5, "title:Fusion": 2, "author:nobody": 2, "title:absent": 0}, 2)
}

// modelDoc mirrors the store's expected visible state in plain maps.
type model struct {
	docs map[string]map[string]string
}

func (m *model) apply(op texservice.IngestOp) {
	switch op.Kind {
	case texservice.IngestPut:
		fields := map[string]string{}
		for k, v := range op.Fields {
			fields[k] = v
		}
		m.docs[op.ExtID] = fields
	case texservice.IngestDelete:
		delete(m.docs, op.ExtID)
	}
}

func (m *model) search(e textidx.Expr) []string {
	var exts []string
	for ext, fields := range m.docs {
		if textidx.MatchesDoc(e, textidx.Document{ExtID: ext, Fields: fields}) {
			exts = append(exts, ext)
		}
	}
	sort.Strings(exts)
	return exts
}

// clone returns a copy of the model that later applies leave alone (a
// put installs a fresh fields map, so the maps can be shared).
func (m *model) clone() *model {
	c := &model{docs: make(map[string]map[string]string, len(m.docs))}
	for ext, fields := range m.docs {
		c.docs[ext] = fields
	}
	return c
}

// count is the number of modelled documents whose field holds the term.
func (m *model) count(field, term string) int {
	n := 0
	for _, fields := range m.docs {
		if textidx.TermOccursIn(term, fields[field]) {
			n++
		}
	}
	return n
}

// viewCharge is what a search of v is charged: Eval's charge over the
// base plus Eval's charge over a frozen index of the view's delta
// documents, as if they were a collection of their own.
func viewCharge(t *testing.T, v *View, e textidx.Expr) int {
	t.Helper()
	res, err := v.base.Eval(e)
	if err != nil {
		t.Fatal(err)
	}
	delta := textidx.NewIndex()
	for i := 0; i < v.deltaLen; i++ {
		doc, err := v.delta.Doc(textidx.DocID(i))
		if err != nil {
			t.Fatal(err)
		}
		delta.MustAdd(doc)
	}
	delta.Freeze()
	dres, err := delta.Eval(e)
	if err != nil {
		t.Fatal(err)
	}
	return res.Postings + dres.Postings
}

// TestStorePropertyRandomOps drives a random sequence of puts, updates and
// deletes — with compactions and a durable reopen interleaved — and after
// every step checks that store reads are equivalent to a trivially correct
// model of the visible state. Reads go through the latest view and through
// a few views kept from earlier steps, each checked against a copy of the
// model taken when it was captured: later writes and compactions must not
// change what a view answers, retrieves or is charged. Every search is
// charged Eval's charge over the base plus Eval's charge over the view's
// delta documents, and DocFrequency stays within its documented slack of
// the model and is exact for the delta.
func TestStorePropertyRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dir := t.TempDir()
	base := baseIndex(t, 12)
	s, err := Open(base, Options{Dir: dir, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}

	m := &model{docs: map[string]map[string]string{}}
	for i := 0; i < base.NumDocs(); i++ {
		doc, _ := base.Doc(textidx.DocID(i))
		m.apply(texservice.IngestOp{Kind: texservice.IngestPut, ExtID: doc.ExtID, Fields: doc.Fields})
	}

	titles := []string{"belief update", "sensor fusion", "query plans", "join methods", "text sources"}
	queries := []string{
		"title='belief'", "title='fusion'", "title='join' and title='methods'",
		"title='belief' or title='plans'", "author='nobody'", "title='update' and not author='author1'",
		"title='belief update'", "title='bel?'", "title='update' near2 'belief'", "'nobody'",
		"not title='belief'", "'sensor fusion' or (title='text?' and not 'author2')",
	}
	freqs := [][2]string{
		{"title", "belief"}, {"title", "fusion"}, {"author", "nobody"}, {"author", "author1"},
		{"title", "Belief"}, {"title", "absent"},
	}
	exprs := make([]textidx.Expr, len(queries))
	for i, q := range queries {
		e, err := textidx.Parse(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		exprs[i] = e
	}

	// kept holds views from earlier steps, each with the model, the hits
	// and the charges of its queries as of its capture.
	type keptView struct {
		v       *View
		m       *model
		hits    [][]hit
		charges []int
	}
	var kept []keptView
	checkView := func(step int, kv keptView) {
		for qi, e := range exprs {
			hits, postings, err := viewSearch(kv.v, e)
			if err != nil {
				t.Fatalf("step %d view@%d query %q: %v", step, kv.v.Seq(), queries[qi], err)
			}
			var got []string
			for _, h := range hits {
				got = append(got, h.Doc.ExtID)
				doc, err := kv.v.Doc(h.ID)
				if err != nil || doc.ExtID != h.Doc.ExtID {
					t.Fatalf("step %d view@%d: Retrieve(%d) = %v, %v; the hit was %s",
						step, kv.v.Seq(), h.ID, doc.ExtID, err, h.Doc.ExtID)
				}
			}
			sort.Strings(got)
			if want := kv.m.search(e); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("step %d view@%d query %q: store=%v model=%v", step, kv.v.Seq(), queries[qi], got, want)
			}
			if want := viewCharge(t, kv.v, e); postings != want {
				t.Fatalf("step %d view@%d query %q: charged %d postings, want %d", step, kv.v.Seq(), queries[qi], postings, want)
			}
			if kv.hits != nil && (fmt.Sprint(hits) != fmt.Sprint(kv.hits[qi]) || postings != kv.charges[qi]) {
				t.Fatalf("step %d view@%d query %q: answer moved from %v (%d postings) to %v (%d postings)",
					step, kv.v.Seq(), queries[qi], kv.hits[qi], kv.charges[qi], hits, postings)
			}
		}
	}
	check := func(step int) {
		v := s.CurrentView()
		checkView(step, keptView{v: v, m: m})
		for _, kv := range kept {
			checkView(step, kv)
		}
		if step%10 == 0 {
			kv := keptView{v: v, m: m.clone()}
			for _, e := range exprs {
				hits, postings, err := viewSearch(v, e)
				if err != nil {
					t.Fatal(err)
				}
				kv.hits = append(kv.hits, hits)
				kv.charges = append(kv.charges, postings)
			}
			if kept = append(kept, kv); len(kept) > 4 {
				kept = kept[1:]
			}
		}
		for _, f := range freqs {
			df, want := v.DocFrequency(f[0], f[1]), m.count(f[0], f[1])
			if df < want || df > want+len(s.tomb) {
				t.Fatalf("step %d: DocFrequency(%s, %q) = %d, model %d, %d tombstones", step, f[0], f[1], df, want, len(s.tomb))
			}
			delta := 0
			for i := 0; i < s.delta.NumDocs(); i++ {
				doc, _ := s.delta.Doc(textidx.DocID(i))
				if _, dead := s.tomb[textidx.DocID(s.baseCount+i)]; !dead && textidx.TermOccursIn(f[1], doc.Fields[f[0]]) {
					delta++
				}
			}
			if base := s.base.DocFrequency(f[0], f[1]); df != base+delta {
				t.Fatalf("step %d: DocFrequency(%s, %q) = %d, want the base's %d plus the %d visible delta documents",
					step, f[0], f[1], df, base, delta)
			}
		}
		if n := s.CurrentView().NumDocs(); n != len(m.docs) {
			t.Fatalf("step %d: NumDocs=%d model=%d", step, n, len(m.docs))
		}
	}

	check(-1)
	for step := 0; step < 120; step++ {
		switch r := rng.Float64(); {
		case r < 0.05:
			if err := s.Compact(bg); err != nil {
				t.Fatalf("step %d compact: %v", step, err)
			}
		case r < 0.10:
			// Durable reopen: close cleanly, open from the same dir with
			// the ORIGINAL base (the snapshot/WAL must supersede it).
			if err := s.Close(); err != nil {
				t.Fatalf("step %d close: %v", step, err)
			}
			s, err = Open(base, Options{Dir: dir, CompactThreshold: -1})
			if err != nil {
				t.Fatalf("step %d reopen: %v", step, err)
			}
			kept = nil // views of the closed store go with it
		default:
			n := 1 + rng.Intn(3)
			ops := make([]texservice.IngestOp, 0, n)
			for j := 0; j < n; j++ {
				ext := fmt.Sprintf("r%d", rng.Intn(18)) // hits base, new, and absent ids
				if rng.Float64() < 0.3 {
					ops = append(ops, del(ext))
				} else {
					ops = append(ops, put(ext, titles[rng.Intn(len(titles))]))
				}
			}
			if _, err := s.Apply(bg, ops); err != nil {
				t.Fatalf("step %d apply: %v", step, err)
			}
			for _, op := range ops {
				m.apply(op)
			}
		}
		check(step)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreCrashRecovery simulates a crash by copying the durable
// directory at an arbitrary moment (the acked state on disk) and opening
// a second store from the copy: every acked write must be visible.
func TestStoreCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	base := baseIndex(t, 6)
	s, err := Open(base, Options{Dir: dir, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(bg, []texservice.IngestOp{put("n1", "crash survivor"), del("r1")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(bg); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(bg, []texservice.IngestOp{put("n2", "post compaction write")}); err != nil {
		t.Fatal(err)
	}

	// Crash image: the directory exactly as the acked writes left it,
	// while the original store still has it open.
	crash := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crash, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	r, err := Open(base, Options{Dir: crash, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := searchExts(t, r, "title='crash' and title='survivor'"); len(got) != 1 || got[0] != "n1" {
		t.Fatalf("pre-compaction write lost: %v", got)
	}
	if got := searchExts(t, r, "title='post' and title='compaction'"); len(got) != 1 || got[0] != "n2" {
		t.Fatalf("post-compaction write lost: %v", got)
	}
	if got := searchExts(t, r, "title='sensor'"); fmt.Sprint(got) != "[r5]" {
		t.Fatalf("delete of r1 lost: %v", got)
	}
	if r.Version() != s.Version() {
		t.Fatalf("recovered version %d != original %d", r.Version(), s.Version())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreTornTailRecovery: a crash in the middle of the last WAL
// record leaves a torn tail. Reopening truncates it, reports its size in
// TornBytes, and keeps every whole record visible; the torn record was
// never acknowledged, so it is gone.
func TestStoreTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	base := baseIndex(t, 6)
	s, err := Open(base, Options{Dir: dir, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []texservice.IngestOp{put("n1", "first whole"), put("n2", "second whole"), put("n3", "torn record")} {
		if _, err := s.Apply(bg, []texservice.IngestOp{op}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.TornBytes() != 0 {
		t.Fatalf("fresh store reports %d torn bytes", s.TornBytes())
	}

	segs, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segment in %s (%v)", dir, err)
	}
	last := segs[len(segs)-1] // hex start sequences sort lexically
	st, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, st.Size()-5); err != nil {
		t.Fatal(err)
	}

	r, err := Open(base, Options{Dir: dir, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.TornBytes() <= 0 {
		t.Fatalf("torn tail not reported (TornBytes = %d)", r.TornBytes())
	}
	if r.Replayed() != 2 {
		t.Fatalf("replayed %d records, want the 2 whole ones", r.Replayed())
	}
	for _, q := range []string{"title='first'", "title='second'"} {
		if got := searchExts(t, r, q); len(got) != 1 {
			t.Fatalf("%s after torn-tail recovery: %v, want one whole record", q, got)
		}
	}
	if got := searchExts(t, r, "title='torn'"); len(got) != 0 {
		t.Fatalf("torn record visible after recovery: %v", got)
	}
}

// TestStoreCompactionTruncatesWAL checks the compaction contract: the
// snapshot+manifest land on disk, sealed segments are removed, and a
// reopen replays only post-compaction records.
func TestStoreCompactionTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(baseIndex(t, 4), Options{Dir: dir, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Apply(bg, []texservice.IngestOp{put(fmt.Sprintf("n%d", i), "bulk write")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(bg); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(bg, []texservice.IngestOp{put("after", "late write")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	man, ok, err := LoadManifest(dir)
	if err != nil || !ok {
		t.Fatalf("manifest missing after compaction: %v %v", ok, err)
	}
	if man.Seq != 10 {
		t.Fatalf("manifest seq = %d, want 10", man.Seq)
	}

	r, err := Open(baseIndex(t, 4), Options{Dir: dir, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n := r.Replayed(); n != 1 {
		t.Fatalf("reopen replayed %d records, want 1 (only the post-compaction write)", n)
	}
	if got := searchExts(t, r, "title='bulk'"); len(got) != 10 {
		t.Fatalf("compacted writes lost: %d hits", len(got))
	}
	if got := searchExts(t, r, "title='late'"); len(got) != 1 {
		t.Fatalf("post-compaction write lost: %v", got)
	}
}

// TestStoreShardedBroadcast applies one op stream to every shard of an
// n-shard deployment (the broadcast the Sharded federation performs) and
// checks each document ends up visible on exactly one shard.
func TestStoreShardedBroadcast(t *testing.T) {
	for _, n := range []int{2, 4} {
		base := baseIndex(t, 12)
		parts, err := base.Partition(n)
		if err != nil {
			t.Fatal(err)
		}
		stores := make([]*Store, n)
		for k := 0; k < n; k++ {
			stores[k], err = Open(parts[k], Options{ShardIndex: k, ShardCount: n})
			if err != nil {
				t.Fatal(err)
			}
		}
		ops := []texservice.IngestOp{
			put("n1", "shard routing"), put("n2", "shard routing"),
			put("r0", "moved content"), // update of a base doc: may change owner
			del("r1"),
		}
		for _, st := range stores {
			if _, err := st.Apply(bg, ops); err != nil {
				t.Fatal(err)
			}
		}
		owners := map[string]int{}
		total := 0
		for k, st := range stores {
			for _, ext := range searchExts(t, st, "title='shard' or title='moved'") {
				if prev, dup := owners[ext]; dup {
					t.Fatalf("n=%d: %s visible on shards %d and %d", n, ext, prev, k)
				}
				owners[ext] = k
			}
			total += st.CurrentView().NumDocs()
		}
		for _, ext := range []string{"n1", "n2", "r0"} {
			k, ok := owners[ext]
			if !ok {
				t.Fatalf("n=%d: %s not visible on any shard", n, ext)
			}
			if want := OwnerShard(ext, n); k != want {
				t.Fatalf("n=%d: %s on shard %d, owner is %d", n, ext, k, want)
			}
		}
		// 12 base docs - r1 deleted - r0 moved + r0 re-put + n1 + n2 = 13.
		if total != 13 {
			t.Fatalf("n=%d: federation holds %d docs, want 13", n, total)
		}
		for _, st := range stores {
			st.Close()
		}
	}
}

// TestStoreConcurrentWritersAndReaders hammers the store from parallel
// writers and a reader under -race. The reader holds each view it
// captures for a run of searches while writes append to the delta index
// and the small CompactThreshold forces compactions that swap it out; a
// held view's hits and Postings must never change. Consistency is checked
// at the end (every acked write visible).
func TestStoreConcurrentWritersAndReaders(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(baseIndex(t, 8), Options{Dir: dir, CompactThreshold: 16, CompactMinInterval: 1})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				ext := fmt.Sprintf("w%d-%d", w, i)
				if _, err := s.Apply(bg, []texservice.IngestOp{put(ext, "concurrent write")}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var exprs []textidx.Expr
		for _, q := range []string{"title='concurrent'", "'write' and not title='belief?'"} {
			e, err := textidx.Parse(q, nil)
			if err != nil {
				t.Error(err)
				return
			}
			exprs = append(exprs, e)
		}
		var v *View
		var first []string
		for i := 0; i < 200; i++ {
			if i%25 == 0 {
				v, first = s.CurrentView(), nil
			}
			for qi, e := range exprs {
				hits, postings, err := viewSearch(v, e)
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				got := fmt.Sprint(hits, postings)
				if len(first) < len(exprs) {
					first = append(first, got)
				} else if got != first[qi] {
					t.Errorf("view@%d: search %d answered %s, then %s", v.Seq(), qi, first[qi], got)
					return
				}
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := searchExts(t, s, "title='concurrent'"); len(got) != writers*perWriter {
		t.Fatalf("%d concurrent writes visible, want %d", len(got), writers*perWriter)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(baseIndex(t, 8), Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := searchExts(t, r, "title='concurrent'"); len(got) != writers*perWriter {
		t.Fatalf("%d writes survive reopen, want %d", len(got), writers*perWriter)
	}
}
