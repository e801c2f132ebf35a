package textidx

import (
	"fmt"
	"path/filepath"
	"testing"
)

func partitionFixture(t testing.TB, docs int) *Index {
	t.Helper()
	ix := NewIndex()
	for i := 0; i < docs; i++ {
		ix.MustAdd(Document{
			ExtID: fmt.Sprintf("d%d", i),
			Fields: map[string]string{
				"title": fmt.Sprintf("document number %d about text", i),
				"tag":   fmt.Sprintf("tag%d", i%3),
			},
		})
	}
	ix.Freeze()
	return ix
}

func TestPartitionArithmetic(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8} {
		seen := map[DocID]bool{}
		for g := DocID(0); g < 64; g++ {
			k := ShardOf(g, n)
			if k < 0 || k >= n {
				t.Fatalf("ShardOf(%d, %d) = %d out of range", g, n, k)
			}
			l := LocalID(g, n)
			if back := GlobalID(k, l, n); back != g {
				t.Fatalf("roundtrip n=%d: g=%d → (%d,%d) → %d", n, g, k, l, back)
			}
			if seen[g] {
				t.Fatalf("docid %d mapped twice", g)
			}
			seen[g] = true
		}
		// Local ids are dense per shard: documents k, k+n, k+2n… get
		// local ids 0, 1, 2…
		for k := 0; k < n; k++ {
			for i := 0; i < 10; i++ {
				g := DocID(i*n + k)
				if LocalID(g, n) != DocID(i) {
					t.Fatalf("n=%d shard %d doc %d: local id %d, want %d",
						n, k, g, LocalID(g, n), i)
				}
			}
		}
	}
}

func TestPartitionSplitsCorpus(t *testing.T) {
	const docs = 25
	ix := partitionFixture(t, docs)
	for _, n := range []int{1, 2, 4, 7} {
		parts, err := ix.Partition(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(parts) != n {
			t.Fatalf("Partition(%d) returned %d shards", n, len(parts))
		}
		total := 0
		for k, part := range parts {
			total += part.NumDocs()
			// Every local document is the corresponding global document.
			for l := 0; l < part.NumDocs(); l++ {
				got, err := part.Doc(DocID(l))
				if err != nil {
					t.Fatal(err)
				}
				want, err := ix.Doc(GlobalID(k, DocID(l), n))
				if err != nil {
					t.Fatal(err)
				}
				if got.ExtID != want.ExtID {
					t.Fatalf("n=%d shard %d local %d: %s, want %s",
						n, k, l, got.ExtID, want.ExtID)
				}
			}
		}
		if total != docs {
			t.Fatalf("n=%d: shards hold %d docs, want %d", n, total, docs)
		}
		// Posting lists are rebuilt per shard: document frequencies sum
		// to the unsharded frequency.
		for _, term := range []string{"text", "tag0", "tag1", "nosuchterm"} {
			field := "title"
			if term != "text" && term != "nosuchterm" {
				field = "tag"
			}
			sum := 0
			for _, part := range parts {
				sum += part.DocFrequency(field, term)
			}
			if want := ix.DocFrequency(field, term); sum != want {
				t.Fatalf("n=%d df(%s.%s): shards sum %d, want %d", n, field, term, sum, want)
			}
		}
	}
}

func TestPartitionSearchUnion(t *testing.T) {
	ix := partitionFixture(t, 30)
	const n = 3
	parts, err := ix.Partition(n)
	if err != nil {
		t.Fatal(err)
	}
	q := Term{Field: "tag", Word: "tag1"}
	want, err := ix.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	var merged []DocID
	for k, part := range parts {
		res, err := part.Eval(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range res.Docs {
			merged = append(merged, GlobalID(k, l, n))
		}
	}
	if len(merged) != len(want.Docs) {
		t.Fatalf("union has %d docs, want %d", len(merged), len(want.Docs))
	}
	got := map[DocID]bool{}
	for _, g := range merged {
		got[g] = true
	}
	for _, g := range want.Docs {
		if !got[g] {
			t.Fatalf("doc %d missing from the union", g)
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	ix := NewIndex()
	ix.MustAdd(Document{ExtID: "a", Fields: map[string]string{"title": "x"}})
	if _, err := ix.Partition(2); err == nil {
		t.Fatal("unfrozen index partitioned")
	}
	ix.Freeze()
	if _, err := ix.Partition(0); err == nil {
		t.Fatal("0-way partition accepted")
	}
}

// TestSplitSnapshotFile: a persisted full snapshot splits into per-shard
// snapshots that load back as the same partitions, the path
// `textserve -snapshot full -shard k/n -write-snapshot` takes so shard
// servers start without re-indexing.
func TestSplitSnapshotFile(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "full.snap")
	if err := partitionFixture(t, 20).SaveFile(src); err != nil {
		t.Fatal(err)
	}
	full, err := LoadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	parts, err := full.Partition(n)
	if err != nil {
		t.Fatal(err)
	}
	for k, part := range parts {
		path := filepath.Join(dir, fmt.Sprintf("shard-%d.snap", k))
		if err := part.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		back, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if back.NumDocs() != 5 {
			t.Fatalf("shard %d holds %d docs, want 5", k, back.NumDocs())
		}
		for id := DocID(0); int(id) < back.NumDocs(); id++ {
			got, _ := back.Doc(id)
			want, _ := full.Doc(GlobalID(k, id, n))
			if got.ExtID != want.ExtID {
				t.Fatalf("shard %d local doc %d is %q, want global doc %q", k, id, got.ExtID, want.ExtID)
			}
		}
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.snap")); err == nil {
		t.Fatal("missing snapshot loaded")
	}
}
