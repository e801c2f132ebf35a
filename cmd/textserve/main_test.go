package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
	"textjoin/internal/workload"
)

func TestWriteSnapshotAndServeIt(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "idx.snap")
	// Write a snapshot (returns without listening).
	if err := run("127.0.0.1:0", 120, 3, "", "", snap, "title,author,year", 70, "", "", false, ""); err != nil {
		t.Fatal(err)
	}
	ix, err := textidx.LoadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumDocs() != 120 {
		t.Fatalf("snapshot has %d docs", ix.NumDocs())
	}
}

func TestLoadJSONDocs(t *testing.T) {
	dir := t.TempDir()
	docsFile := filepath.Join(dir, "docs.json")
	docs := []jsonDoc{
		{Ext: "a", Fields: map[string]string{"title": "alpha beta"}},
		{Ext: "b", Fields: map[string]string{"title": "beta gamma"}},
	}
	data, err := json.Marshal(docs)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(docsFile, data, 0o644); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, "from-json.snap")
	if err := run("127.0.0.1:0", 0, 1, docsFile, "", snap, "title", 70, "", "", false, ""); err != nil {
		t.Fatal(err)
	}
	ix, err := textidx.LoadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumDocs() != 2 || ix.DocFrequency("title", "beta") != 2 {
		t.Fatalf("loaded index wrong: %d docs", ix.NumDocs())
	}
}

// TestWriteShardSnapshots splits the generated corpus into shard
// snapshots via -shard k/n -write-snapshot, the workflow that lets shard
// servers start without re-indexing.
func TestWriteShardSnapshots(t *testing.T) {
	dir := t.TempDir()
	const docs, n = 90, 3
	total := 0
	for k := 0; k < n; k++ {
		snap := filepath.Join(dir, "shard.snap")
		shardArg := []string{"0/3", "1/3", "2/3"}[k]
		if err := run("127.0.0.1:0", docs, 3, "", "", snap, "title,author,year", 70, "", shardArg, false, ""); err != nil {
			t.Fatal(err)
		}
		ix, err := textidx.LoadFile(snap)
		if err != nil {
			t.Fatal(err)
		}
		total += ix.NumDocs()
	}
	if total != docs {
		t.Fatalf("shard snapshots hold %d docs in total, want %d", total, docs)
	}
	if err := run("x", 10, 1, "", "", "", "title", 70, "", "3/3", false, ""); err == nil {
		t.Error("out-of-range -shard accepted")
	}
	if err := run("x", 10, 1, "", "", "", "title", 70, "", "junk", false, ""); err == nil {
		t.Error("malformed -shard accepted")
	}
}

func TestLoadErrors(t *testing.T) {
	if err := run("x", 10, 1, filepath.Join(t.TempDir(), "missing.json"), "", "", "title", 70, "", "", false, ""); err == nil {
		t.Error("missing JSON accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("x", 10, 1, bad, "", "", "title", 70, "", "", false, ""); err == nil {
		t.Error("bad JSON accepted")
	}
	if err := run("x", 10, 1, "", filepath.Join(t.TempDir(), "missing.snap"), "", "title", 70, "", "", false, ""); err == nil {
		t.Error("missing snapshot accepted")
	}
}

// TestServeFromSnapshotEndToEnd starts the server from a snapshot on an
// ephemeral port and queries it remotely. The server's blocking run()
// waits for a signal, so the server is assembled from the same pieces
// run() uses.
func TestServeFromSnapshotEndToEnd(t *testing.T) {
	c := workload.NewCorpus(workload.CorpusConfig{Docs: 150, Seed: 5})
	snap := filepath.Join(t.TempDir(), "e2e.snap")
	if err := c.Index.SaveFile(snap); err != nil {
		t.Fatal(err)
	}
	ix, err := textidx.LoadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	local, err := texservice.NewLocal(ix, texservice.WithShortFields("title", "author"))
	if err != nil {
		t.Fatal(err)
	}
	srv := texservice.NewServer(local)
	srv.Logf = t.Logf
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	remote, err := texservice.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	res, err := remote.Search(bg, textidx.Term{Field: "author", Word: c.Authors[0]}, texservice.FormShort)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("no hits through the snapshot-served index")
	}
}
