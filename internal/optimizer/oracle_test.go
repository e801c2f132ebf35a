package optimizer

import (
	"fmt"
	"math"
)

// OptimizeExhaustive enumerates every left-deep join order (all
// permutations of the relations, with the text join placed at every legal
// position) without dynamic programming, and returns the cheapest
// traditional (probe-free) plan. It is exponential and is the tests'
// oracle for the DP enumerator: on the traditional space the DP must find
// a plan of exactly this cost.
func (o *Optimizer) OptimizeExhaustive() (*Result, error) {
	n := len(o.tables)
	if n == 0 {
		return nil, fmt.Errorf("optimizer: no relational tables")
	}
	if n > 8 {
		return nil, fmt.Errorf("optimizer: exhaustive enumeration limited to 8 tables, got %d", n)
	}
	if o.opts.Mode != ModeTraditional {
		return nil, fmt.Errorf("optimizer: exhaustive enumeration covers the traditional space only")
	}

	best := cand{cost: math.Inf(1)}
	perm := make([]int, 0, n)
	used := make([]bool, n)
	fullSrc := o.fullSrcMask()

	var extendPerm func(c cand, mask, srcMask uint32) error
	finish := func(c cand, srcMask uint32) {
		if len(perm) != n || srcMask != fullSrc {
			return
		}
		if c.cost < best.cost {
			best = c
		}
	}

	// tryText places every pending, legal source's foreign join (and
	// chains further placements recursively).
	var tryText func(c cand, mask, srcMask uint32) error
	tryText = func(c cand, mask, srcMask uint32) error {
		for si, src := range o.sources {
			bit := uint32(1) << uint(si)
			if srcMask&bit != 0 {
				continue
			}
			ready := true
			for _, f := range o.a.Foreign {
				if f.Source == src && o.tableBit[f.Table]&mask == 0 {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			exts, err := o.textJoinCands(c, src)
			if err != nil {
				return err
			}
			for _, e := range exts {
				finish(e, srcMask|bit)
				if err := extendPerm(e, mask, srcMask|bit); err != nil {
					return err
				}
				if err := tryText(e, mask, srcMask|bit); err != nil {
					return err
				}
			}
		}
		return nil
	}

	extendPerm = func(c cand, mask, srcMask uint32) error {
		finish(c, srcMask)
		for ti := range o.tables {
			if used[ti] {
				continue
			}
			used[ti] = true
			perm = append(perm, ti)
			exts, err := o.extend(c, o.tables[ti], fullSrc /* no probes */)
			if err != nil {
				return err
			}
			for _, e := range exts {
				newMask := mask | 1<<uint(ti)
				if err := extendPerm(e, newMask, srcMask); err != nil {
					return err
				}
				if err := tryText(e, newMask, srcMask); err != nil {
					return err
				}
			}
			perm = perm[:len(perm)-1]
			used[ti] = false
		}
		return nil
	}

	for ti := range o.tables {
		used[ti] = true
		perm = append(perm, ti)
		c, err := o.scanCand(o.tables[ti])
		if err != nil {
			return nil, err
		}
		mask := uint32(1) << uint(ti)
		if err := extendPerm(c, mask, 0); err != nil {
			return nil, err
		}
		if err := tryText(c, mask, 0); err != nil {
			return nil, err
		}
		perm = perm[:len(perm)-1]
		used[ti] = false
	}
	if math.IsInf(best.cost, 1) {
		return nil, fmt.Errorf("optimizer: exhaustive enumeration found no plan")
	}
	return &Result{Plan: best.node, EstCost: best.cost, JoinTasks: o.joinTasks}, nil
}
