package ingest

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"time"

	"textjoin/internal/obs"
	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
)

// Store is a mutable document collection built LSM-style from three
// layers:
//
//   - an immutable, frozen textidx snapshot (the base),
//   - an append-only textidx index of the documents added since the
//     snapshot (the delta), and
//   - a tombstone map recording when a docid was deleted.
//
// Both indexes are searched by the same evaluator: the base in full, the
// delta over the prefix a View captured (textidx.EvalFirst), so a search
// reads and is charged inverted lists on both sides and never tokenizes a
// document again.
//
// Every write is assigned a monotonically increasing sequence number,
// logged to the WAL, fsynced (group commit), and only then applied and
// acknowledged. Reads run against a View pinned at a sequence number S:
// a docid is visible iff it was born at or before S and not tombstoned
// at or before S — snapshot isolation per query, without blocking
// writers.
//
// DocIDs stay dense and stable forever: delta documents continue the
// base's dense numbering, and compaction keeps deleted docids as empty
// placeholder documents (they index nothing and are filtered from every
// read) so ids assigned before a compaction remain valid after it. The
// modulo partition invariants of textidx therefore keep holding on every
// shard of a sharded deployment.
type Store struct {
	opts Options
	wal  *WAL // nil for a memory-only store

	// seqMu orders sequence assignment with WAL enqueue so file order
	// always equals sequence order. Waiting for the fsync happens outside
	// it — that is what lets concurrent writers share group commits.
	seqMu   sync.Mutex
	lastSeq uint64
	closed  bool

	// mu guards the layered state. Writers and the compaction swap take
	// the write lock; every read evaluates under the read lock (captured
	// views reference structures that are only mutated under the write
	// lock, and become immutable once a compaction swaps them out).
	mu        sync.RWMutex
	applyCond *sync.Cond // on &mu; broadcast whenever applied advances
	base      *textidx.Index
	baseCount int
	delta     *textidx.Index // never frozen; its i-th document has docid baseCount+i
	addSeq    []uint64       // parallel to delta's documents, ascending
	tomb      map[textidx.DocID]uint64
	extid     map[string]textidx.DocID // ext id -> currently live docid
	applied   uint64                   // last applied seq == index version
	live      int                      // visible docs at the latest seq
	snapSeq   uint64                   // last seq folded into the on-disk snapshot

	compacting  bool
	lastCompact time.Time
	compactions uint64
	replayed    uint64
	torn        int64
}

// Options configures a Store.
type Options struct {
	// Dir is the durability directory (WAL segments + snapshots +
	// manifest). Empty means memory-only: writes are applied but nothing
	// survives a restart.
	Dir string
	// ShardIndex / ShardCount identify this store's partition. With
	// ShardCount > 1 a put is only inserted when this shard owns the
	// external id by hash (OwnerShard); on every other shard the same op
	// tombstones any local copy. Broadcasting one op batch to all shards
	// therefore keeps the federation consistent without a coordinator.
	ShardIndex, ShardCount int
	// CompactThreshold is the delta+tombstone op count that triggers a
	// background compaction (default 4096; negative disables).
	CompactThreshold int
	// CompactMinInterval throttles background compactions so repeated
	// triggers cannot starve queries (default 2s).
	CompactMinInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.CompactThreshold == 0 {
		o.CompactThreshold = 4096
	}
	if o.CompactMinInterval == 0 {
		o.CompactMinInterval = 2 * time.Second
	}
	if o.ShardCount < 1 {
		o.ShardCount = 1
	}
	return o
}

// OwnerShard returns the shard that owns writes of the given external id
// in an n-shard deployment (FNV-1a hash; every shard must agree).
func OwnerShard(extID string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(extID))
	return int(h.Sum32() % uint32(n))
}

// Open builds a store over a frozen base index. With a durability
// directory, a persisted snapshot (if any) supersedes the provided base
// and the WAL is replayed on top, so every previously acknowledged write
// is visible again; the provided base only seeds a fresh directory.
func Open(base *textidx.Index, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if base == nil {
		base = textidx.NewIndex()
		base.Freeze()
	}
	if !base.Frozen() {
		return nil, fmt.Errorf("ingest: base index must be frozen")
	}
	s := &Store{
		opts:  opts,
		delta: textidx.NewIndex(),
		tomb:  map[textidx.DocID]uint64{},
	}
	s.applyCond = sync.NewCond(&s.mu)

	if opts.Dir != "" {
		wal, err := OpenWAL(opts.Dir)
		if err != nil {
			return nil, err
		}
		man, ok, err := LoadManifest(opts.Dir)
		if err != nil {
			return nil, err
		}
		if ok {
			snap, err := textidx.LoadFile(filepath.Join(opts.Dir, man.Snapshot))
			if err != nil {
				return nil, fmt.Errorf("ingest: load snapshot: %w", err)
			}
			base = snap
			s.snapSeq = man.Seq
		}
		s.wal = wal
	}
	s.installBase(base)
	s.applied = s.snapSeq
	s.lastSeq = s.snapSeq

	if s.wal != nil {
		torn, err := s.wal.Replay(func(rec Record) error { return s.replayRecord(rec) })
		if err != nil {
			return nil, err
		}
		s.torn = torn
		if err := s.wal.Start(s.lastSeq + 1); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// installBase points the store at a fresh base layer and rebuilds the
// external-id map and live count from it (placeholder documents — empty
// ExtID — are dead slots kept only for docid stability).
func (s *Store) installBase(base *textidx.Index) {
	s.base = base
	s.baseCount = base.NumDocs()
	s.extid = make(map[string]textidx.DocID, s.baseCount)
	s.live = 0
	for i := 0; i < s.baseCount; i++ {
		doc, _ := base.Doc(textidx.DocID(i))
		if doc.ExtID == "" {
			continue
		}
		s.extid[doc.ExtID] = textidx.DocID(i)
		s.live++
	}
}

// replayRecord applies one logged record during Open. Records at or
// below the applied sequence are skipped, which makes replay idempotent:
// re-replaying a segment that the snapshot already covers (a crash
// between manifest write and segment removal) changes nothing.
func (s *Store) replayRecord(rec Record) error {
	if rec.Seq <= s.applied {
		return nil
	}
	op := texservice.IngestOp{Kind: rec.Kind, ExtID: rec.ExtID, Fields: rec.Fields}
	if err := op.Validate(); err != nil {
		return fmt.Errorf("ingest: replay seq %d: %w", rec.Seq, err)
	}
	s.applyOneLocked(op, rec.Seq)
	s.applied = rec.Seq
	s.lastSeq = rec.Seq
	s.replayed++
	return nil
}

// TornBytes reports how many bytes of torn tail the last Open truncated.
func (s *Store) TornBytes() int64 { return s.torn }

// Replayed reports how many WAL records the last Open applied.
func (s *Store) Replayed() uint64 { return s.replayed }

// SyncStats reports the WAL's append and fsync counts (zero without a
// durability directory) — the group-commit amortization surface.
func (s *Store) SyncStats() (appends, syncs uint64) {
	if s.wal == nil {
		return 0, 0
	}
	return s.wal.SyncStats()
}

// Apply durably applies a batch of ops: sequence numbers are assigned,
// the records are fsynced to the WAL (sharing group commits with
// concurrent batches), then applied in sequence order, and only then
// acknowledged. After the ack, every new View sees the batch.
func (s *Store) Apply(ctx context.Context, ops []texservice.IngestOp) (*texservice.IngestResult, error) {
	if err := texservice.ValidateIngest(ops); err != nil {
		return nil, err
	}
	ctx, sp := obs.StartSpan(ctx, "ingest.apply")
	defer sp.End()

	// Assign the batch's sequence range and enqueue the WAL records
	// under the sequence mutex, so log order equals sequence order.
	s.seqMu.Lock()
	if s.closed {
		s.seqMu.Unlock()
		return nil, fmt.Errorf("ingest: store is closed")
	}
	first := s.lastSeq + 1
	s.lastSeq += uint64(len(ops))
	var pending *Pending
	if s.wal != nil {
		recs := make([]Record, len(ops))
		for i, op := range ops {
			recs[i] = Record{Seq: first + uint64(i), Kind: op.Kind, ExtID: op.ExtID, Fields: op.Fields}
		}
		buf, err := EncodeRecords(recs)
		if err != nil {
			s.seqMu.Unlock()
			s.skipSeqs(first, len(ops))
			return nil, err
		}
		pending = s.wal.Enqueue(buf)
	}
	s.seqMu.Unlock()

	// Wait for durability outside every lock (the group commit).
	if pending != nil {
		if err := pending.Wait(); err != nil {
			s.skipSeqs(first, len(ops))
			return nil, fmt.Errorf("ingest: wal append: %w", err)
		}
	}

	// Apply in sequence order: batches whose fsync finished early wait
	// for their predecessors so a View pinned at S always contains every
	// write with seq ≤ S.
	s.mu.Lock()
	for s.applied != first-1 {
		s.applyCond.Wait()
	}
	changed := 0
	for i, op := range ops {
		if s.applyOneLocked(op, first+uint64(i)) {
			changed++
		}
	}
	s.applied = first + uint64(len(ops)) - 1
	version := s.applied
	s.applyCond.Broadcast()
	compact := s.shouldCompactLocked()
	s.mu.Unlock()

	if sp != nil {
		sp.SetAttr(obs.Int("ops", len(ops)), obs.Int("applied", changed),
			obs.Int("seq", int(version)))
	}
	if compact {
		go s.backgroundCompact()
	}
	return &texservice.IngestResult{Seq: version, Applied: changed, Version: version}, nil
}

// skipSeqs marks a sequence range as applied without effect, keeping the
// in-order apply chain moving after a failed WAL append burned the range.
func (s *Store) skipSeqs(first uint64, n int) {
	s.mu.Lock()
	for s.applied != first-1 {
		s.applyCond.Wait()
	}
	s.applied = first + uint64(n) - 1
	s.applyCond.Broadcast()
	s.mu.Unlock()
}

// applyOneLocked applies one op at its sequence number. It reports
// whether visible state changed. Re-puts tombstone the previous docid
// and insert a fresh one, so every docid has exactly one lifetime
// [addSeq, delSeq) and visibility checks stay a single interval test.
func (s *Store) applyOneLocked(op texservice.IngestOp, seq uint64) bool {
	switch op.Kind {
	case texservice.IngestPut:
		if s.opts.ShardCount > 1 && OwnerShard(op.ExtID, s.opts.ShardCount) != s.opts.ShardIndex {
			// Not the hash owner: the document now lives elsewhere, so
			// drop any local copy (it may be here from the docid-modulo
			// base partition) and otherwise ignore the put.
			return s.tombstoneLocked(op.ExtID, seq)
		}
		if prev, ok := s.extid[op.ExtID]; ok {
			s.tomb[prev] = seq
			s.live--
		}
		fields := make(map[string]string, len(op.Fields))
		for k, v := range op.Fields {
			fields[k] = v
		}
		id := textidx.DocID(s.baseCount) + s.delta.MustAdd(textidx.Document{ExtID: op.ExtID, Fields: fields})
		s.addSeq = append(s.addSeq, seq)
		s.extid[op.ExtID] = id
		s.live++
		return true
	case texservice.IngestDelete:
		return s.tombstoneLocked(op.ExtID, seq)
	}
	return false
}

func (s *Store) tombstoneLocked(extID string, seq uint64) bool {
	id, ok := s.extid[extID]
	if !ok {
		return false
	}
	s.tomb[id] = seq
	delete(s.extid, extID)
	s.live--
	return true
}

// View is a consistent read snapshot pinned at a sequence number: the
// base, and the delta index with the number of its documents that were
// added at or before that sequence. Later writes append past that prefix
// and a compaction swaps in a fresh delta, so neither changes what the
// view reads. A View is the texservice.Corpus a Live service reads: every
// read takes the store's read lock, which orders it against the writers
// that add to the growing delta and to the shared tombstone map.
type View struct {
	mu        *sync.RWMutex // the store's
	seq       uint64
	base      *textidx.Index
	baseCount int
	delta     *textidx.Index
	deltaLen  int
	tomb      map[textidx.DocID]uint64
	numDocs   int // visible documents at seq
}

// Seq returns the sequence number the view is pinned at.
func (v *View) Seq() uint64 { return v.seq }

// CurrentView captures a view of the latest acknowledged state.
func (s *Store) CurrentView() *View {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return &View{
		mu:        &s.mu,
		seq:       s.applied,
		base:      s.base,
		baseCount: s.baseCount,
		delta:     s.delta,
		deltaLen:  s.delta.NumDocs(),
		tomb:      s.tomb,
		numDocs:   s.live,
	}
}

// live reports whether docid id is not tombstoned at or before the
// view's sequence.
func (v *View) live(id textidx.DocID) bool {
	ts, ok := v.tomb[id]
	return !ok || ts > v.seq
}

// visibleBase reports whether base docid id is visible at the view's
// sequence: not a placeholder, and not tombstoned at or before it.
func (v *View) visibleBase(id textidx.DocID) bool {
	doc, err := v.base.Doc(id)
	return err == nil && doc.ExtID != "" && v.live(id)
}

// Eval evaluates a Boolean expression against the view: the frozen base
// in full and the delta over the view's prefix, both through their
// inverted indexes, keeping only the visible ids. They stay ascending
// because every delta id exceeds every base id. Postings is the
// inverted-list work on both sides — the processing charge c_p models:
// every list the expression names, cut to the view's prefix on the delta
// side, plus the collection size of each side for every Not.
func (v *View) Eval(e textidx.Expr) (textidx.EvalResult, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	res, err := v.base.Eval(e)
	if err != nil {
		return textidx.EvalResult{}, err
	}
	var dres textidx.EvalResult
	if v.deltaLen > 0 { // an empty delta has nothing to read or charge
		if dres, err = v.delta.EvalFirst(e, v.deltaLen); err != nil {
			return textidx.EvalResult{}, err
		}
	}
	docs := make([]textidx.DocID, 0, len(res.Docs)+len(dres.Docs))
	for _, id := range res.Docs {
		if v.visibleBase(id) {
			docs = append(docs, id)
		}
	}
	for _, local := range dres.Docs {
		if id := textidx.DocID(v.baseCount) + local; v.live(id) {
			docs = append(docs, id)
		}
	}
	return textidx.EvalResult{Docs: docs, Postings: res.Postings + dres.Postings}, nil
}

// Doc returns the document with the given id if it is visible in the
// view.
func (v *View) Doc(id textidx.DocID) (textidx.Document, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if id >= 0 && int(id) < v.baseCount {
		if v.visibleBase(id) {
			return v.base.Doc(id)
		}
	} else if local := int(id) - v.baseCount; local >= 0 && local < v.deltaLen && v.live(id) {
		return v.delta.Doc(textidx.DocID(local))
	}
	return textidx.Document{}, fmt.Errorf("textidx: no document %d", id)
}

// DocFrequency approximates the number of documents whose field contains
// the one word: the base index's exact count (which may still include
// documents tombstoned since the last compaction) plus the exact count of
// the delta documents visible in the view, read off the word's delta
// list. Statistics consumers tolerate the base's slack — they are
// estimates for the optimizer, not query answers.
func (v *View) DocFrequency(field, word string) int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	n := v.base.DocFrequency(field, word)
	res, err := v.delta.EvalFirst(textidx.Term{Field: field, Word: word}, v.deltaLen)
	if err != nil {
		return n
	}
	for _, local := range res.Docs {
		if v.live(textidx.DocID(v.baseCount) + local) {
			n++
		}
	}
	return n
}

// NumDocs returns the number of documents visible in the view.
func (v *View) NumDocs() int { return v.numDocs }

var _ texservice.Corpus = (*View)(nil)

// Version returns the index version: the last applied sequence number.
func (s *Store) Version() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.applied
}

// Compactions reports how many compactions have completed.
func (s *Store) Compactions() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.compactions
}

// DeltaLen reports the current delta size (tests and metrics).
func (s *Store) DeltaLen() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.delta.NumDocs()
}

func (s *Store) shouldCompactLocked() bool {
	if s.opts.CompactThreshold < 0 || s.compacting {
		return false
	}
	if s.delta.NumDocs()+len(s.tomb) < s.opts.CompactThreshold {
		return false
	}
	return time.Since(s.lastCompact) >= s.opts.CompactMinInterval
}

func (s *Store) backgroundCompact() {
	_ = s.Compact(context.Background())
}

// Compact folds every write at or below a cut sequence into a fresh
// frozen base index, persists it (when durable) and drops the WAL
// segments it covers. The expensive index build runs outside both locks
// against an immutable capture, so queries and writes proceed
// concurrently; only the final swap takes the write lock. Deleted
// docids become empty placeholder documents in the new base, keeping
// every previously issued docid valid.
func (s *Store) Compact(ctx context.Context) error {
	s.mu.Lock()
	if s.compacting {
		s.mu.Unlock()
		return nil
	}
	s.compacting = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.compacting = false
		s.lastCompact = time.Now()
		s.applyCond.Broadcast()
		s.mu.Unlock()
	}()

	ctx, sp := obs.StartSpan(ctx, "ingest.compact")
	defer sp.End()

	// Choose the cut B and seal the WAL at exactly that boundary: the
	// sequence mutex guarantees every record with seq ≤ B is already
	// enqueued (in order) before the rotation request, so the sealed
	// segments hold precisely seqs ≤ B not yet covered by a snapshot.
	s.seqMu.Lock()
	cut := s.lastSeq
	var sealed []string
	var rotErr error
	if s.wal != nil {
		sealed, rotErr = s.wal.Rotate(cut + 1)
	}
	s.seqMu.Unlock()
	if rotErr != nil {
		return fmt.Errorf("ingest: rotate wal: %w", rotErr)
	}

	// Wait until everything at or below the cut is applied, then capture
	// an immutable build input: the base is never mutated again, the
	// delta prefix's documents are copied out because the delta index
	// keeps growing, and so are the relevant tombstones because the live
	// map keeps growing for newer sequences.
	s.mu.Lock()
	for s.applied < cut {
		s.applyCond.Wait()
	}
	base := s.base
	baseCount := s.baseCount
	split := len(s.addSeq)
	for split > 0 && s.addSeq[split-1] > cut {
		split--
	}
	deltaPrefix := make([]textidx.Document, split)
	for i := range deltaPrefix {
		deltaPrefix[i], _ = s.delta.Doc(textidx.DocID(i))
	}
	cutTomb := make(map[textidx.DocID]uint64, len(s.tomb))
	for id, ts := range s.tomb {
		if ts <= cut {
			cutTomb[id] = ts
		}
	}
	s.mu.Unlock()

	// Build the new base outside the locks.
	next := textidx.NewIndex()
	for i := 0; i < baseCount; i++ {
		id := textidx.DocID(i)
		doc, err := base.Doc(id)
		if err != nil {
			return err
		}
		if doc.ExtID == "" || deadAt(cutTomb, id) {
			doc = textidx.Document{} // placeholder: keeps docids stable
		}
		if _, err := next.Add(doc); err != nil {
			return err
		}
	}
	for i, doc := range deltaPrefix {
		if deadAt(cutTomb, textidx.DocID(baseCount+i)) {
			doc = textidx.Document{}
		}
		if _, err := next.Add(doc); err != nil {
			return err
		}
	}
	next.Freeze()

	// Persist snapshot + manifest, then drop the sealed segments. A
	// crash between these steps is safe: replay skips seqs the manifest
	// covers, so re-reading a stale segment is a no-op.
	if s.opts.Dir != "" {
		snapName := fmt.Sprintf("snap-%016x.idx", cut)
		if err := next.SaveFile(filepath.Join(s.opts.Dir, snapName)); err != nil {
			return fmt.Errorf("ingest: save snapshot: %w", err)
		}
		old, hadOld, _ := LoadManifest(s.opts.Dir)
		if err := SaveManifest(s.opts.Dir, Manifest{Snapshot: snapName, Seq: cut}); err != nil {
			return fmt.Errorf("ingest: save manifest: %w", err)
		}
		if hadOld && old.Snapshot != snapName {
			_ = os.Remove(filepath.Join(s.opts.Dir, old.Snapshot))
		}
		if err := s.wal.RemoveSegments(sealed); err != nil {
			return fmt.Errorf("ingest: drop sealed segments: %w", err)
		}
	}

	// Swap. Delta documents above the cut are indexed afresh and keep
	// their ids, which continue the new base's numbering exactly; views
	// captured earlier keep the old delta index, which is no longer
	// added to. Tombstones above the cut refer to docids that still exist
	// (live in the new base or still in the delta), so they carry over
	// unchanged.
	s.mu.Lock()
	suffix := textidx.NewIndex()
	for i := split; i < s.delta.NumDocs(); i++ {
		doc, _ := s.delta.Doc(textidx.DocID(i))
		suffix.MustAdd(doc)
	}
	newTomb := make(map[textidx.DocID]uint64)
	for id, ts := range s.tomb {
		if ts > cut {
			newTomb[id] = ts
		}
	}
	s.base = next
	s.baseCount = next.NumDocs()
	s.delta = suffix
	s.addSeq = append([]uint64(nil), s.addSeq[split:]...)
	s.tomb = newTomb
	s.snapSeq = cut
	s.compactions++
	s.mu.Unlock()

	if sp != nil {
		sp.SetAttr(obs.Int("cut_seq", int(cut)), obs.Int("folded", split),
			obs.Int("base_docs", next.NumDocs()))
	}
	return nil
}

func deadAt(tomb map[textidx.DocID]uint64, id textidx.DocID) bool {
	_, ok := tomb[id]
	return ok
}

// Close drains in-flight writes and background compaction, then closes
// the WAL. Further Applies fail.
func (s *Store) Close() error {
	s.seqMu.Lock()
	if s.closed {
		s.seqMu.Unlock()
		return nil
	}
	s.closed = true
	last := s.lastSeq
	s.seqMu.Unlock()

	s.mu.Lock()
	for s.applied < last || s.compacting {
		s.applyCond.Wait()
	}
	s.mu.Unlock()

	if s.wal != nil {
		return s.wal.Close()
	}
	return nil
}
