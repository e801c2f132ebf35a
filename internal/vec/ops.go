package vec

import (
	"fmt"

	"textjoin/internal/relation"
	"textjoin/internal/value"
)

// TableScan produces batches from an in-memory table, applying an optional
// filter and column projection in a single pass. The predicate is compiled
// once and evaluated against the full source row, so it may reference
// columns the projection prunes away — this is what lets the planner push
// filters below the projection cut.
type TableScan struct {
	schema *relation.Schema
	rows   []relation.Tuple
	idxs   []int // source column index per output column
	pred   *relation.CompiledPred
	pos    int
	out    *Batch
}

// NewTableScan builds a scan over t emitting the named columns (nil or
// empty = all columns, in schema order) filtered by pred (nil = all rows).
func NewTableScan(t *relation.Table, cols []string, pred relation.Predicate) (*TableScan, error) {
	var cp *relation.CompiledPred
	if pred != nil {
		var err error
		cp, err = relation.Compile(pred, t.Schema)
		if err != nil {
			return nil, err
		}
	}
	var idxs []int
	var schema *relation.Schema
	if len(cols) == 0 {
		idxs = make([]int, t.Schema.Arity())
		for i := range idxs {
			idxs[i] = i
		}
		schema = t.Schema
	} else {
		idxs = make([]int, len(cols))
		outCols := make([]relation.Column, len(cols))
		for i, name := range cols {
			idx := t.Schema.ColumnIndex(name)
			if idx < 0 {
				return nil, fmt.Errorf("vec: %s has no column %q", t.Name, name)
			}
			idxs[i] = idx
			outCols[i] = t.Schema.Cols[idx]
		}
		schema = &relation.Schema{Cols: outCols}
	}
	return &TableScan{
		schema: schema,
		rows:   t.Rows,
		idxs:   idxs,
		pred:   cp,
		out:    getBatch(len(idxs)),
	}, nil
}

// Schema implements Operator.
func (s *TableScan) Schema() *relation.Schema { return s.schema }

// Next implements Operator. The filter is applied while copying, so
// batches are dense and never empty: a stretch of rejected rows, however
// long, is skipped inside one call.
func (s *TableScan) Next() (*Batch, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	out := s.out
	out.reset()
	for s.pos < len(s.rows) {
		r := s.rows[s.pos]
		s.pos++
		if s.pred != nil {
			ok, err := s.pred.Eval(r)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		for j, idx := range s.idxs {
			out.cols[j] = append(out.cols[j], r[idx])
		}
		out.rows++
		if out.rows == BatchSize {
			return out, nil
		}
	}
	if out.rows == 0 {
		return nil, nil
	}
	return out, nil
}

// Close implements Operator.
func (s *TableScan) Close() {
	putBatch(s.out)
	s.out = nil
}

// Reset rewinds the scan to the first row for re-execution.
func (s *TableScan) Reset() { s.pos = 0 }

// Project reorders or drops columns without copying any values: the
// output batch aliases the child's column vectors.
type Project struct {
	in     Operator
	schema *relation.Schema
	idxs   []int
	out    Batch
}

// NewProject builds a projection of in onto the named columns.
func NewProject(in Operator, cols []string) (*Project, error) {
	s := in.Schema()
	idxs := make([]int, len(cols))
	outCols := make([]relation.Column, len(cols))
	for i, name := range cols {
		idx := s.ColumnIndex(name)
		if idx < 0 {
			return nil, fmt.Errorf("vec: no column %q to project", name)
		}
		idxs[i] = idx
		outCols[i] = s.Cols[idx]
	}
	return &Project{
		in:     in,
		schema: &relation.Schema{Cols: outCols},
		idxs:   idxs,
		out:    Batch{cols: make([][]value.Value, len(idxs))},
	}, nil
}

// Schema implements Operator.
func (p *Project) Schema() *relation.Schema { return p.schema }

// Next implements Operator.
func (p *Project) Next() (*Batch, error) {
	b, err := p.in.Next()
	if err != nil || b == nil {
		return nil, err
	}
	for j, idx := range p.idxs {
		p.out.cols[j] = b.cols[idx]
	}
	p.out.rows = b.rows
	return &p.out, nil
}

// Close implements Operator.
func (p *Project) Close() { p.in.Close() }

// HashJoin is the batch equi-join. It drains the right child into a
// row-major build side keyed by the join columns (a relation.KeyIndex, its
// rows in pooled memory released on Close), then streams left batches
// through it, emitting concatenated rows in left-major order — exactly the
// order relation.NestedLoopJoin produces over the equivalent predicate,
// which keeps results comparable with the oracle in the equivalence tests.
type HashJoin struct {
	left, right Operator
	schema      *relation.Schema
	lIdx, rIdx  []int
	residual    *relation.CompiledPred
	leftArity   int

	built     bool
	mem       Arena
	buildRows *[]relation.Tuple
	keys      *relation.KeyIndex
	groups    [][]int // per build key id, its build rows in order

	// Streaming resume state: output can fill mid-probe, so the position
	// inside the current left batch and its match list survives across
	// Next calls.
	cur      *Batch
	curRow   int
	matches  []int
	matchPos int
	done     bool

	scratch relation.Tuple
	key     []value.Value
	out     *Batch
}

// NewHashJoin builds an equi-join of left and right on conds with an
// optional residual predicate over the concatenated schema.
func NewHashJoin(left, right Operator, conds []relation.EquiJoinCond, residual relation.Predicate) (*HashJoin, error) {
	if len(conds) == 0 {
		return nil, fmt.Errorf("vec: hash join requires at least one equality condition")
	}
	ls, rs := left.Schema(), right.Schema()
	lIdx := make([]int, len(conds))
	rIdx := make([]int, len(conds))
	for i, c := range conds {
		li := ls.ColumnIndex(c.Left)
		if li < 0 {
			return nil, fmt.Errorf("vec: no column %q on join left", c.Left)
		}
		ri := rs.ColumnIndex(c.Right)
		if ri < 0 {
			return nil, fmt.Errorf("vec: no column %q on join right", c.Right)
		}
		lIdx[i], rIdx[i] = li, ri
	}
	schema := ls.Concat(rs)
	var res *relation.CompiledPred
	if residual != nil {
		var err error
		res, err = relation.Compile(residual, schema)
		if err != nil {
			return nil, err
		}
	}
	return &HashJoin{
		left:      left,
		right:     right,
		schema:    schema,
		lIdx:      lIdx,
		rIdx:      rIdx,
		residual:  res,
		leftArity: ls.Arity(),
		scratch:   make(relation.Tuple, schema.Arity()),
		key:       make([]value.Value, len(conds)),
		out:       getBatch(schema.Arity()),
	}, nil
}

// Schema implements Operator.
func (h *HashJoin) Schema() *relation.Schema { return h.schema }

func (h *HashJoin) build() error {
	h.buildRows = h.mem.list()
	h.keys = relation.NewKeyIndex(len(h.rIdx), BatchSize)
	for {
		b, err := h.right.Next()
		if err != nil {
			return err
		}
		if b == nil {
			h.groups = h.keys.Groups()
			h.built = true
			return nil
		}
		first := len(*h.buildRows)
		h.mem.gather(h.buildRows, b)
		for _, row := range (*h.buildRows)[first:] {
			for j, idx := range h.rIdx {
				h.key[j] = row[idx]
			}
			h.keys.Add(h.key)
		}
	}
}

// Next implements Operator.
func (h *HashJoin) Next() (*Batch, error) {
	if h.done {
		return nil, nil
	}
	if !h.built {
		if err := h.build(); err != nil {
			return nil, err
		}
	}
	out := h.out
	out.reset()
	for {
		if h.cur == nil {
			b, err := h.left.Next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				h.done = true
				if out.rows == 0 {
					return nil, nil
				}
				return out, nil
			}
			h.cur = b
			h.curRow = 0
			h.matches = nil
		}
		for h.curRow < h.cur.Len() {
			if h.matches == nil {
				for j, idx := range h.lIdx {
					h.key[j] = h.cur.cols[idx][h.curRow]
				}
				id := h.keys.Find(h.key)
				if id < 0 {
					h.curRow++
					continue
				}
				h.cur.Gather(h.curRow, h.scratch[:h.leftArity])
				h.matches = h.groups[id]
				h.matchPos = 0
			}
			for h.matchPos < len(h.matches) {
				rr := (*h.buildRows)[h.matches[h.matchPos]]
				h.matchPos++
				copy(h.scratch[h.leftArity:], rr)
				if h.residual != nil {
					ok, err := h.residual.Eval(h.scratch)
					if err != nil {
						return nil, err
					}
					if !ok {
						continue
					}
				}
				out.appendRow(h.scratch)
				if out.rows == BatchSize {
					return out, nil
				}
			}
			h.matches = nil
			h.curRow++
		}
		h.cur = nil
	}
}

// Close implements Operator.
func (h *HashJoin) Close() {
	h.left.Close()
	h.right.Close()
	putBatch(h.out)
	h.out = nil
	h.mem.Release()
}

// NestedLoop is the batch theta-join for arbitrary predicates. The right
// child is materialized once, into pooled memory released on Close; each
// left row is copied into a scratch
// prefix once and the inner loop overwrites only the suffix, mirroring
// the scratch-row fix in relation.NestedLoopJoin.
type NestedLoop struct {
	left, right Operator
	schema      *relation.Schema
	pred        *relation.CompiledPred
	leftArity   int

	built     bool
	mem       Arena
	rightRows *[]relation.Tuple

	cur     *Batch
	curRow  int
	ri      int
	started bool // scratch prefix loaded for the current left row
	done    bool

	scratch relation.Tuple
	out     *Batch
}

// NewNestedLoop builds a theta-join of left and right on pred, which is
// compiled against the concatenated schema.
func NewNestedLoop(left, right Operator, pred relation.Predicate) (*NestedLoop, error) {
	schema := left.Schema().Concat(right.Schema())
	if pred == nil {
		pred = relation.True{}
	}
	cp, err := relation.Compile(pred, schema)
	if err != nil {
		return nil, err
	}
	return &NestedLoop{
		left:      left,
		right:     right,
		schema:    schema,
		pred:      cp,
		leftArity: left.Schema().Arity(),
		scratch:   make(relation.Tuple, schema.Arity()),
		out:       getBatch(schema.Arity()),
	}, nil
}

// Schema implements Operator.
func (n *NestedLoop) Schema() *relation.Schema { return n.schema }

func (n *NestedLoop) build() error {
	n.rightRows = n.mem.list()
	for {
		b, err := n.right.Next()
		if err != nil {
			return err
		}
		if b == nil {
			n.built = true
			return nil
		}
		n.mem.gather(n.rightRows, b)
	}
}

// Next implements Operator.
func (n *NestedLoop) Next() (*Batch, error) {
	if n.done {
		return nil, nil
	}
	if !n.built {
		if err := n.build(); err != nil {
			return nil, err
		}
	}
	out := n.out
	out.reset()
	for {
		if n.cur == nil {
			b, err := n.left.Next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				n.done = true
				if out.rows == 0 {
					return nil, nil
				}
				return out, nil
			}
			n.cur = b
			n.curRow = 0
			n.ri = 0
			n.started = false
		}
		for n.curRow < n.cur.Len() {
			if !n.started {
				n.cur.Gather(n.curRow, n.scratch[:n.leftArity])
				n.started = true
			}
			for n.ri < len(*n.rightRows) {
				copy(n.scratch[n.leftArity:], (*n.rightRows)[n.ri])
				n.ri++
				ok, err := n.pred.Eval(n.scratch)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
				out.appendRow(n.scratch)
				if out.rows == BatchSize {
					return out, nil
				}
			}
			n.ri = 0
			n.started = false
			n.curRow++
		}
		n.cur = nil
	}
}

// Close implements Operator.
func (n *NestedLoop) Close() {
	n.left.Close()
	n.right.Close()
	putBatch(n.out)
	n.out = nil
	n.mem.Release()
}
