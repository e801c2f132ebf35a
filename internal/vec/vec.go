// Package vec implements the column-oriented batch execution core: dense
// batches of ~1024 rows stored column-major, and batch-at-a-time
// scan/project/join operators over them.
//
// The row-at-a-time operators in internal/relation materialize a full
// output table per operator and re-resolve column names per tuple; in the
// cache-hit / local-service regime that interpreter overhead — not the
// text source — dominates query latency. The vectorized operators amortize
// per-tuple costs over a batch, evaluate filters inside the scan so every
// batch is dense, and recycle batch buffers through a sync.Pool so the
// steady-state scan/project path performs zero allocations.
//
// Ownership contract: a *Batch returned by Operator.Next is valid only
// until the next call to Next or Close on that operator. Operators own
// their children and close them on Close.
package vec

import (
	"sync"

	"textjoin/internal/relation"
	"textjoin/internal/value"
)

// BatchSize is the number of rows a full batch carries. 1024 keeps a
// batch's column vectors comfortably inside the L2 cache for the narrow
// schemas the paper's workloads use, while amortizing per-batch overhead
// over enough rows that the interpreter disappears from profiles.
const BatchSize = 1024

// Batch is a dense, column-major slice of rows: cols holds one vector per
// output column, each rows long.
type Batch struct {
	cols [][]value.Value
	rows int
}

// Width returns the number of columns.
func (b *Batch) Width() int { return len(b.cols) }

// Len returns the number of rows.
func (b *Batch) Len() int { return b.rows }

// Gather copies row i into dst, which must have length Width.
func (b *Batch) Gather(i int, dst relation.Tuple) {
	for j, col := range b.cols {
		dst[j] = col[i]
	}
}

// reset empties the batch for refilling, keeping column capacity.
func (b *Batch) reset() {
	for j := range b.cols {
		b.cols[j] = b.cols[j][:0]
	}
	b.rows = 0
}

// appendRow appends one row of values to the batch's columns.
func (b *Batch) appendRow(t relation.Tuple) {
	for j, v := range t {
		b.cols[j] = append(b.cols[j], v)
	}
	b.rows++
}

// pool recycles batch buffers across operator lifetimes. Operators acquire
// their output batch once at construction and release it on Close, so the
// per-Next hot path never touches the pool (and stays allocation-free even
// when the pool is empty).
var pool = sync.Pool{New: func() any { return new(Batch) }}

// getBatch returns a batch with capacity for width columns of BatchSize
// rows each.
func getBatch(width int) *Batch {
	b := pool.Get().(*Batch)
	if cap(b.cols) < width {
		b.cols = make([][]value.Value, width)
	} else {
		b.cols = b.cols[:width]
	}
	for j := range b.cols {
		if cap(b.cols[j]) < BatchSize {
			b.cols[j] = make([]value.Value, 0, BatchSize)
		} else {
			b.cols[j] = b.cols[j][:0]
		}
	}
	b.rows = 0
	return b
}

// putBatch returns a batch to the pool.
func putBatch(b *Batch) {
	if b != nil {
		pool.Put(b)
	}
}

// Operator is a pull-based batch iterator. Next returns the next batch of
// rows, or (nil, nil) at end of stream. The returned batch is valid only
// until the next Next or Close call.
type Operator interface {
	Schema() *relation.Schema
	Next() (*Batch, error)
	Close()
}

// Materialize drains op into a row-major table and closes it. This is the
// boundary back to the row world (text-source probe operators, result
// delivery). The rows and the Rows slice come from mem, or from the heap
// when mem is nil.
func Materialize(name string, op Operator, mem *Arena) (*relation.Table, error) {
	defer op.Close()
	rows := mem.list()
	for {
		b, err := op.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			tbl := relation.NewTable(name, op.Schema())
			tbl.Rows = *rows
			return tbl, nil
		}
		mem.gather(rows, b)
	}
}

// Arena is row memory recycled across queries: rows are windows into
// fixed-size slabs and row lists are reused slices, all from sync.Pools.
// Everything an Arena hands out is valid until Release, which clears it —
// a row read through an alias kept past Release holds only NULLs — and
// returns it to the pools. The zero Arena is ready to use; a nil *Arena
// allocates from the heap and Release does nothing.
type Arena struct {
	slabs *slab // the newest slab, the one rows are cut from
	lists *rowList
}

// slabLen is the number of values in a pooled slab: four full batches of
// the narrow rows foreign joins take. One size keeps every pooled slab
// reusable for every row.
const slabLen = 4 * BatchSize

// slab and rowList are pooled buffers, chained through the arena holding
// them so that holding one more costs no allocation.
type slab struct {
	vals []value.Value
	used int
	next *slab
}

type rowList struct {
	rows []relation.Tuple
	next *rowList
}

var (
	slabPool = sync.Pool{New: func() any { return new(slab) }}
	listPool = sync.Pool{New: func() any { return new(rowList) }}
)

// list returns an empty row list for gather to grow.
func (a *Arena) list() *[]relation.Tuple {
	if a == nil {
		return new([]relation.Tuple)
	}
	l := listPool.Get().(*rowList)
	l.next, a.lists = a.lists, l
	return &l.rows
}

// gather appends b's rows to *rows. Each row is a window whose
// capacity ends at its own last column, so appending to a row never
// overwrites the next; on the heap, a batch's rows share one allocation.
func (a *Arena) gather(rows *[]relation.Tuple, b *Batch) {
	w, n := b.Width(), b.Len()
	var heap []value.Value
	if a == nil {
		heap = make([]value.Value, n*w)
	}
	for i := 0; i < n; i++ {
		var row relation.Tuple
		if a == nil {
			row = heap[i*w : (i+1)*w : (i+1)*w]
		} else {
			row = a.row(w)
		}
		b.Gather(i, row)
		*rows = append(*rows, row)
	}
}

// row cuts a row of w values from the newest slab, taking a fresh slab
// from the pool when it is full.
func (a *Arena) row(w int) relation.Tuple {
	s := a.slabs
	if s == nil || len(s.vals)-s.used < w {
		s = slabPool.Get().(*slab)
		if len(s.vals) < w {
			s.vals = make([]value.Value, max(w, slabLen))
		}
		s.next, a.slabs = a.slabs, s
	}
	row := s.vals[s.used : s.used+w : s.used+w]
	s.used += w
	return row
}

// Release clears every slab and row list the arena handed out and returns
// them to the pools. The arena is empty and reusable afterwards.
func (a *Arena) Release() {
	if a == nil {
		return
	}
	for s := a.slabs; s != nil; {
		next := s.next
		clear(s.vals[:s.used])
		s.used, s.next = 0, nil
		slabPool.Put(s)
		s = next
	}
	for l := a.lists; l != nil; {
		next := l.next
		clear(l.rows)
		l.rows, l.next = l.rows[:0], nil
		listPool.Put(l)
		l = next
	}
	a.slabs, a.lists = nil, nil
}

// Drain consumes op without materializing, returning the row and batch
// counts. Used by benchmarks and the allocation regression test.
func Drain(op Operator) (rows, batches int, err error) {
	for {
		b, err := op.Next()
		if err != nil {
			return rows, batches, err
		}
		if b == nil {
			return rows, batches, nil
		}
		rows += b.Len()
		batches++
	}
}
