// Package ingest opens the write path of the integration: a per-shard
// write-ahead log, an in-memory delta segment layered LSM-style over the
// immutable textidx snapshot, and background compaction that folds the
// delta into a new snapshot and truncates the log. The Live service in
// this package serves texservice.Service reads over the union of
// snapshot and delta under a per-query sequence number, so an
// acknowledged write is immediately visible to every join method while
// in-flight queries keep the view they started with.
package ingest

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// The log is a directory of segment files named wal-<first seq>.log.
// Each record is framed as
//
//	[4-byte big-endian payload length][4-byte CRC32-IEEE of payload][payload]
//
// with a JSON payload. A torn tail (crash mid-write) shows up as a short
// or CRC-mismatching final record; replay truncates the file back to the
// last whole record, which is exactly the acked prefix — an ack is only
// sent after fsync covers the record.

// Record is one logged write.
type Record struct {
	Seq    uint64            `json:"seq"`
	Kind   string            `json:"kind"` // texservice.IngestPut or IngestDelete
	ExtID  string            `json:"ext"`
	Fields map[string]string `json:"fields,omitempty"`
}

// maxRecordSize bounds one record's payload (16 MiB, matching the wire
// protocol's message bound).
const maxRecordSize = 16 << 20

const (
	segPrefix = "wal-"
	segSuffix = ".log"
)

func segmentName(startSeq uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, startSeq, segSuffix)
}

// WAL is an append-only, group-committed write-ahead log. Appends from
// concurrent writers are batched into shared fsyncs: every writer blocks
// until a sync covering its record completes, but one disk flush
// acknowledges the whole batch.
type WAL struct {
	dir string

	reqCh  chan *walReq
	closed chan struct{} // closed by Close; syncer drains and exits
	done   chan struct{} // closed when the syncer has exited

	// closeMu orders Enqueue/Rotate against Close: a request sent under
	// the read lock is in reqCh before Close (under the write lock)
	// signals the syncer to drain and exit, so no request can slip past
	// the final drain and strand its waiter.
	closeMu sync.RWMutex
	closing bool

	mu       sync.Mutex
	segments []string // all segment paths, oldest first (active last)
	f        *os.File
	w        *bufio.Writer
	started  bool
	syncs    uint64
	appends  uint64
}

// walReq is one unit of work for the syncer goroutine: an append of
// pre-framed bytes, or a rotation of the active segment.
type walReq struct {
	buf      []byte // framed records to append; nil for a rotation
	rotate   bool
	startSeq uint64 // rotation: first seq the new segment will hold
	sealed   []string
	err      error
	done     chan struct{}
}

// OpenWAL opens (creating if needed) the log directory and discovers
// existing segments. No appends are accepted until Start; replay the
// existing segments first.
func OpenWAL(dir string) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: wal dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ingest: wal dir: %w", err)
	}
	var segs []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix) {
			segs = append(segs, filepath.Join(dir, name))
		}
	}
	sort.Strings(segs) // fixed-width hex start seqs: lexical order = seq order
	w := &WAL{
		dir:      dir,
		segments: segs,
		reqCh:    make(chan *walReq, 128),
		closed:   make(chan struct{}),
		done:     make(chan struct{}),
	}
	return w, nil
}

// Segments returns the known segment paths, oldest first.
func (w *WAL) Segments() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.segments...)
}

// Replay streams every whole record of every segment, in file order, to
// apply. A short or CRC-mismatching record in the FINAL segment is a torn
// tail: the file is truncated back to its last whole record and replay
// ends successfully, reporting the dropped byte count. The same damage in
// a non-final segment is real corruption (later segments prove more data
// was acked after it) and fails the replay.
func (w *WAL) Replay(apply func(Record) error) (dropped int64, err error) {
	segs := w.Segments()
	for i, path := range segs {
		last := i == len(segs)-1
		d, err := replaySegment(path, last, apply)
		dropped += d
		if err != nil {
			return dropped, err
		}
	}
	return dropped, nil
}

func replaySegment(path string, tolerateTear bool, apply func(Record) error) (int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return 0, fmt.Errorf("ingest: replay %s: %w", path, err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var off int64 // offset of the record being read
	for {
		rec, n, rerr := readRecord(r)
		if rerr == io.EOF {
			return 0, nil
		}
		if rerr != nil {
			if !tolerateTear {
				return 0, fmt.Errorf("ingest: corrupt wal record in %s at offset %d: %w", path, off, rerr)
			}
			// Torn tail: drop everything from the bad record on.
			st, serr := f.Stat()
			if serr != nil {
				return 0, serr
			}
			if terr := f.Truncate(off); terr != nil {
				return 0, fmt.Errorf("ingest: truncate torn tail of %s: %w", path, terr)
			}
			return st.Size() - off, nil
		}
		if err := apply(rec); err != nil {
			return 0, err
		}
		off += int64(n)
	}
}

// readRecord reads one framed record. io.EOF means a clean end exactly at
// a record boundary; any other error means a short or corrupt record.
func readRecord(r io.Reader) (Record, int, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return Record{}, 0, io.EOF
		}
		return Record{}, 0, fmt.Errorf("short header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	sum := binary.BigEndian.Uint32(hdr[4:])
	if n > maxRecordSize {
		return Record{}, 0, fmt.Errorf("record length %d exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Record{}, 0, fmt.Errorf("short payload: %w", err)
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return Record{}, 0, fmt.Errorf("crc mismatch (stored %08x, computed %08x)", sum, got)
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, 0, fmt.Errorf("bad payload: %w", err)
	}
	return rec, 8 + int(n), nil
}

// EncodeRecords frames records for Enqueue.
func EncodeRecords(recs []Record) ([]byte, error) {
	var buf []byte
	for _, rec := range recs {
		payload, err := json.Marshal(rec)
		if err != nil {
			return nil, fmt.Errorf("ingest: marshal wal record: %w", err)
		}
		if len(payload) > maxRecordSize {
			return nil, fmt.Errorf("ingest: wal record too large (%d bytes)", len(payload))
		}
		var hdr [8]byte
		binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
		binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
		buf = append(buf, hdr[:]...)
		buf = append(buf, payload...)
	}
	return buf, nil
}

// Start opens the active segment (named for the next sequence number to
// be logged) and launches the group-commit syncer. Call after Replay.
func (w *WAL) Start(nextSeq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.started {
		return fmt.Errorf("ingest: wal already started")
	}
	if err := w.openSegmentLocked(nextSeq); err != nil {
		return err
	}
	w.started = true
	go w.syncLoop()
	return nil
}

func (w *WAL) openSegmentLocked(startSeq uint64) error {
	path := filepath.Join(w.dir, segmentName(startSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("ingest: open wal segment: %w", err)
	}
	w.f = f
	w.w = bufio.NewWriter(f)
	w.segments = append(w.segments, path)
	return nil
}

// Pending is an enqueued append awaiting its group commit.
type Pending struct{ req *walReq }

// Wait blocks until an fsync covers the append (or the write failed).
func (p *Pending) Wait() error {
	if p.req == nil {
		return fmt.Errorf("ingest: wal closed")
	}
	<-p.req.done
	return p.req.err
}

// Enqueue stages pre-framed records (EncodeRecords) for the group
// committer and returns immediately; Wait on the result blocks until an
// fsync covers them. Enqueue order is write order, so callers that need
// file order to equal sequence order enqueue under the same mutex that
// assigns sequences and wait outside it — that is what lets concurrent
// writers share one fsync.
func (w *WAL) Enqueue(buf []byte) *Pending {
	req := &walReq{buf: buf, done: make(chan struct{})}
	w.closeMu.RLock()
	if w.closing {
		w.closeMu.RUnlock()
		return &Pending{}
	}
	w.reqCh <- req
	w.closeMu.RUnlock()
	return &Pending{req: req}
}

// Rotate seals the active segment (flushing and fsyncing anything
// buffered) and opens a new one that will start at nextSeq. It returns
// the paths of every sealed segment, oldest first — the compaction input.
// The caller must guarantee that every Enqueue of a sequence < nextSeq
// has returned (the store enqueues and rotates under its sequence mutex).
func (w *WAL) Rotate(nextSeq uint64) ([]string, error) {
	req := &walReq{rotate: true, startSeq: nextSeq, done: make(chan struct{})}
	w.closeMu.RLock()
	if w.closing {
		w.closeMu.RUnlock()
		return nil, fmt.Errorf("ingest: wal closed")
	}
	w.reqCh <- req
	w.closeMu.RUnlock()
	<-req.done
	return req.sealed, req.err
}

// RemoveSegments deletes sealed segments whose contents are covered by a
// persisted snapshot.
func (w *WAL) RemoveSegments(paths []string) error {
	drop := make(map[string]bool, len(paths))
	var firstErr error
	for _, p := range paths {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		drop[p] = true
	}
	w.mu.Lock()
	kept := w.segments[:0]
	for _, s := range w.segments {
		if !drop[s] {
			kept = append(kept, s)
		}
	}
	w.segments = kept
	w.mu.Unlock()
	return firstErr
}

// syncLoop is the group-commit goroutine: it drains every pending
// request, writes them in order, and issues one fsync for the batch.
func (w *WAL) syncLoop() {
	defer close(w.done)
	for {
		var batch []*walReq
		select {
		case req := <-w.reqCh:
			batch = append(batch, req)
		case <-w.closed:
			// Drain whatever racing submitters managed to enqueue.
			for {
				select {
				case req := <-w.reqCh:
					batch = append(batch, req)
				default:
					w.commit(batch)
					return
				}
			}
		}
		// Opportunistically batch everything already waiting.
	drain:
		for !batch[len(batch)-1].rotate {
			select {
			case req := <-w.reqCh:
				batch = append(batch, req)
				if req.rotate {
					break drain
				}
			default:
				break drain
			}
		}
		w.commit(batch)
	}
}

// commit writes a batch, fsyncs once, and wakes every waiter. A trailing
// rotation is performed after the sync so the sealed file is complete.
func (w *WAL) commit(batch []*walReq) {
	if len(batch) == 0 {
		return
	}
	w.mu.Lock()
	var err error
	var rot *walReq
	for _, req := range batch {
		if req.rotate {
			rot = req
			continue
		}
		if err == nil {
			_, err = w.w.Write(req.buf)
			w.appends++
		} else {
			req.err = err
		}
	}
	if err == nil {
		if err = w.w.Flush(); err == nil {
			err = w.f.Sync()
			w.syncs++
		}
	}
	for _, req := range batch {
		if !req.rotate && req.err == nil {
			req.err = err
		}
	}
	if rot != nil {
		rot.err = err
		if err == nil {
			sealed := append([]string(nil), w.segments...)
			if cerr := w.f.Close(); cerr != nil {
				rot.err = cerr
			} else if oerr := w.openSegmentLocked(rot.startSeq); oerr != nil {
				rot.err = oerr
			} else {
				rot.sealed = sealed
			}
		}
	}
	w.mu.Unlock()
	for _, req := range batch {
		close(req.done)
	}
}

// SyncStats reports how many appends were written and how many fsyncs
// covered them; appends/syncs is the measured group-commit batching.
func (w *WAL) SyncStats() (appends, syncs uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appends, w.syncs
}

// Close flushes, fsyncs, and stops the syncer. Further Enqueues fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	if !w.started {
		w.mu.Unlock()
		return nil
	}
	w.started = false
	w.mu.Unlock()
	// Taking the write lock waits for every in-flight Enqueue/Rotate to
	// finish its channel send, so everything sent is in reqCh before the
	// syncer is told to drain; later calls fail fast on the closing flag.
	w.closeMu.Lock()
	w.closing = true
	w.closeMu.Unlock()
	close(w.closed)
	<-w.done
	// Defense in depth: the ordering above means the syncer's final drain
	// saw every request, but a stranded waiter would block forever, so
	// sweep the channel rather than assume.
	for swept := true; swept; {
		select {
		case req := <-w.reqCh:
			req.err = fmt.Errorf("ingest: wal closed")
			close(req.done)
		default:
			swept = false
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	var err error
	if w.w != nil {
		err = w.w.Flush()
	}
	if w.f != nil {
		if serr := w.f.Sync(); err == nil {
			err = serr
		}
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Manifest records the durable snapshot the log is relative to: replay
// applies only records with Seq > Seq from the segments on disk.
type Manifest struct {
	// Snapshot is the index snapshot file name (relative to the dir).
	Snapshot string `json:"snapshot"`
	// Seq is the last sequence number folded into the snapshot.
	Seq uint64 `json:"seq"`
}

const manifestName = "MANIFEST.json"

// LoadManifest reads the manifest, reporting ok=false when none exists.
func LoadManifest(dir string) (Manifest, bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return Manifest{}, false, nil
	}
	if err != nil {
		return Manifest{}, false, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, false, fmt.Errorf("ingest: bad manifest: %w", err)
	}
	return m, true, nil
}

// SaveManifest atomically replaces the manifest (write temp + rename), so
// a crash leaves either the old or the new manifest, never a torn one.
func SaveManifest(dir string, m Manifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, manifestName))
}
