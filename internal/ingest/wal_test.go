package ingest

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"textjoin/internal/texservice"
)

func walRecords(seqs ...uint64) []Record {
	recs := make([]Record, len(seqs))
	for i, s := range seqs {
		recs[i] = Record{
			Seq:    s,
			Kind:   texservice.IngestPut,
			ExtID:  fmt.Sprintf("doc-%d", s),
			Fields: map[string]string{"title": fmt.Sprintf("title %d", s)},
		}
	}
	return recs
}

func mustSubmit(t *testing.T, w *WAL, recs []Record) {
	t.Helper()
	buf, err := EncodeRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Enqueue(buf).Wait(); err != nil {
		t.Fatal(err)
	}
}

func replayAll(t *testing.T, dir string) ([]Record, int64) {
	t.Helper()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []Record
	dropped, err := w.Replay(func(r Record) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	return got, dropped
}

func TestWALAppendAndReplay(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Start(1); err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, w, walRecords(1, 2))
	mustSubmit(t, w, walRecords(3))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got, dropped := replayAll(t, dir)
	if dropped != 0 {
		t.Fatalf("clean log reported %d torn bytes", dropped)
	}
	if len(got) != 3 {
		t.Fatalf("replayed %d records, want 3", len(got))
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) || r.ExtID != fmt.Sprintf("doc-%d", i+1) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
}

// TestWALTornTail crashes mid-write: the final record is cut short. Replay
// must truncate back to the last whole record and carry on; a second
// replay of the repaired file must be clean.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Start(1); err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, w, walRecords(1, 2, 3))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	seg := filepath.Join(dir, segmentName(1))
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Tear off the last 5 bytes — mid-record.
	if err := os.Truncate(seg, st.Size()-5); err != nil {
		t.Fatal(err)
	}

	got, dropped := replayAll(t, dir)
	if len(got) != 2 {
		t.Fatalf("replayed %d records after tear, want 2 (the whole prefix)", len(got))
	}
	if dropped <= 0 {
		t.Fatalf("torn tail not reported (dropped=%d)", dropped)
	}
	// The tear was repaired in place: replaying again is clean.
	got2, dropped2 := replayAll(t, dir)
	if len(got2) != 2 || dropped2 != 0 {
		t.Fatalf("second replay: %d records, %d dropped; want 2, 0", len(got2), dropped2)
	}
}

// TestWALCorruptCRC flips a payload byte. In the final segment this reads
// as a torn tail (everything from the bad record on is dropped); in a
// non-final segment it is real corruption and replay must fail loudly.
func TestWALCorruptCRC(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Start(1); err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, w, walRecords(1, 2))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	seg := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the SECOND record's payload (first record: 8-byte
	// header + payload; locate the second header by decoding the first
	// length).
	firstLen := int(uint32(data[0])<<24 | uint32(data[1])<<16 | uint32(data[2])<<8 | uint32(data[3]))
	off := 8 + firstLen + 8 + 2 // 2 bytes into the second payload
	data[off] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Final segment: tolerated as a tear, first record survives.
	got, dropped := replayAll(t, dir)
	if len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("replay after final-segment corruption: %d records", len(got))
	}
	if dropped <= 0 {
		t.Fatal("corruption in final segment not reported as dropped bytes")
	}

	// Rebuild the corruption, then add a later segment: now the damage is
	// in a non-final segment and must fail the replay.
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Start(3); err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, w2, walRecords(3))
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	w3, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w3.Replay(func(Record) error { return nil }); err == nil {
		t.Fatal("corrupt non-final segment replayed without error")
	}
}

// TestWALGroupCommit drives many concurrent writers through the syncer:
// every append must be durable, and the fsync count must not exceed the
// append count (shared syncs are the point of the design).
func TestWALGroupCommit(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Start(1); err != nil {
		t.Fatal(err)
	}
	const writers = 64
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf, err := EncodeRecords(walRecords(uint64(i + 1)))
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = w.Enqueue(buf).Wait()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	appends, syncs := w.SyncStats()
	if appends != writers {
		t.Fatalf("appends = %d, want %d", appends, writers)
	}
	if syncs == 0 || syncs > appends {
		t.Fatalf("syncs = %d with %d appends", syncs, appends)
	}
	t.Logf("group commit: %d appends in %d fsyncs", appends, syncs)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := replayAll(t, dir)
	if len(got) != writers {
		t.Fatalf("replayed %d records, want %d", len(got), writers)
	}
}

// TestWALCloseCompletesRacingEnqueues: Close must never strand an
// enqueued append — every Pending.Wait returns (durably committed or
// failed with an error), even when enqueues race the close.
func TestWALCloseCompletesRacingEnqueues(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Start(1); err != nil {
		t.Fatal(err)
	}
	buf, err := EncodeRecords(walRecords(1))
	if err != nil {
		t.Fatal(err)
	}
	const writers = 16
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				// Committed or failed are both fine; blocking forever is
				// the bug.
				_ = w.Enqueue(buf).Wait()
			}
		}()
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a Pending.Wait blocked forever across Close")
	}
	// Post-close appends and rotations fail fast.
	if err := w.Enqueue(buf).Wait(); err == nil {
		t.Fatal("enqueue after close was committed")
	}
	if _, err := w.Rotate(99); err == nil {
		t.Fatal("rotate after close succeeded")
	}
}

func TestWALRotateSealsAtBoundary(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Start(1); err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, w, walRecords(1, 2))
	sealed, err := w.Rotate(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sealed) != 1 || filepath.Base(sealed[0]) != segmentName(1) {
		t.Fatalf("sealed = %v", sealed)
	}
	mustSubmit(t, w, walRecords(3))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := replayAll(t, dir)
	if len(got) != 3 {
		t.Fatalf("replayed %d records across segments, want 3", len(got))
	}
	// Removing the sealed segment leaves only seq 3.
	w2, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.RemoveSegments(sealed); err != nil {
		t.Fatal(err)
	}
	got, _ = replayAll(t, dir)
	if len(got) != 1 || got[0].Seq != 3 {
		t.Fatalf("after segment removal got %v", got)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := LoadManifest(dir); err != nil || ok {
		t.Fatalf("empty dir: ok=%v err=%v", ok, err)
	}
	want := Manifest{Snapshot: "snap-1.idx", Seq: 42}
	if err := SaveManifest(dir, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := LoadManifest(dir)
	if err != nil || !ok || got != want {
		t.Fatalf("LoadManifest = %+v, %v, %v", got, ok, err)
	}
}
