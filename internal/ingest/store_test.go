package ingest

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
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

// searchExts runs a query against the latest view and returns the sorted
// external ids of the hits.
func searchExts(t *testing.T, s *Store, query string) []string {
	t.Helper()
	e, err := textidx.Parse(query, nil)
	if err != nil {
		t.Fatal(err)
	}
	hits, _, err := s.Search(s.CurrentView(), e)
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
	if n := s.NumDocs(); n != 3 {
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
	if _, err := s.Retrieve(v, 0); err == nil {
		t.Fatal("old docid of r0 still retrievable after update")
	}
	doc, err := s.Retrieve(v, textidx.DocID(4))
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
	oldHits, _, err := s.Search(old, e)
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

// TestStorePropertyRandomOps drives a random sequence of puts, updates and
// deletes — with compactions and a durable reopen interleaved — and after
// every step checks that store reads are equivalent to a trivially correct
// model of the visible state.
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
	}
	exprs := make([]textidx.Expr, len(queries))
	for i, q := range queries {
		e, err := textidx.Parse(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		exprs[i] = e
	}

	check := func(step int) {
		for qi, e := range exprs {
			hits, _, err := s.Search(s.CurrentView(), e)
			if err != nil {
				t.Fatalf("step %d query %q: %v", step, queries[qi], err)
			}
			var got []string
			for _, h := range hits {
				got = append(got, h.Doc.ExtID)
			}
			sort.Strings(got)
			want := m.search(e)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("step %d query %q: store=%v model=%v", step, queries[qi], got, want)
			}
		}
		if n := s.NumDocs(); n != len(m.docs) {
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
			total += st.NumDocs()
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
// writers and readers under -race; consistency is checked at the end
// (every acked write visible).
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
		e, _ := textidx.Parse("title='concurrent'", nil)
		for i := 0; i < 200; i++ {
			if _, _, err := s.Search(s.CurrentView(), e); err != nil {
				t.Errorf("reader: %v", err)
				return
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
