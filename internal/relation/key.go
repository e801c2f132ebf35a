package relation

import (
	"math/bits"

	"textjoin/internal/value"
)

// KeyIndex numbers distinct keys — fixed-width tuples of values compared by
// value.KeyEqual — 0, 1, 2, … in first-seen order. It is the one typed row
// key behind grouping (Table.GroupBy), distinct counting and the batch hash
// join: a key is found by the hash of its typed values plus exact typed
// equality, so nothing is built per row, and no two distinct keys can
// collide the way concatenated value.KeyOf strings do.
type KeyIndex struct {
	width int
	heads map[uint64]int32 // key hash → the newest id with that hash
	next  []int32          // per id: the previous id with the same hash, or -1
	keys  []value.Value    // id k's key is keys[k*width : (k+1)*width]
	ids   []int32          // per Add call, the id it returned
}

// NewKeyIndex returns an empty index of keys of the given width, sized
// for about n calls to Add.
func NewKeyIndex(width, n int) *KeyIndex {
	return &KeyIndex{width: width, heads: map[uint64]int32{}, ids: make([]int32, 0, n)}
}

// Len returns the number of distinct keys.
func (x *KeyIndex) Len() int { return len(x.next) }

// Add returns key's id, numbering it if it is new. The index copies what
// it keeps, so key may be a reused scratch slice. Every Add is recorded
// for Groups.
func (x *KeyIndex) Add(key []value.Value) int {
	h := hashKey(key)
	id := x.find(h, key)
	if id < 0 {
		id = int32(len(x.next))
		head, ok := x.heads[h]
		if !ok {
			head = -1
		}
		x.next = append(x.next, head)
		x.heads[h] = id
		x.keys = append(x.keys, key...)
	}
	x.ids = append(x.ids, id)
	return int(id)
}

// Find returns key's id, or -1 when no Add has numbered it.
func (x *KeyIndex) Find(key []value.Value) int {
	return int(x.find(hashKey(key), key))
}

func (x *KeyIndex) find(h uint64, key []value.Value) int32 {
	id, ok := x.heads[h]
	if !ok {
		return -1
	}
	for ; id >= 0; id = x.next[id] {
		if equalKey(x.keys[int(id)*x.width:int(id+1)*x.width], key) {
			return id
		}
	}
	return -1
}

// Groups returns, for every id, the ascending positions of the Add calls
// that returned it. The lists are cut from one slice.
func (x *KeyIndex) Groups() [][]int {
	start := make([]int, x.Len()+1)
	for _, id := range x.ids {
		start[id+1]++
	}
	for k := 1; k < len(start); k++ {
		start[k] += start[k-1]
	}
	pos := make([]int, len(x.ids))
	groups := make([][]int, x.Len())
	for k := range groups {
		groups[k] = pos[start[k]:start[k]:start[k+1]]
	}
	for i, id := range x.ids {
		groups[id] = append(groups[id], i)
	}
	return groups
}

// hashKey combines the values' key hashes in order.
func hashKey(key []value.Value) uint64 {
	var h uint64
	for _, v := range key {
		h = bits.RotateLeft64(h, 23) ^ v.KeyHash()
		h *= 0x9e3779b97f4a7c15
	}
	return h
}

func equalKey(a, b []value.Value) bool {
	for i := range a {
		if !value.KeyEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}
