package textidx

// Sorted docid set operations. They decide how long evaluation takes, not
// what it is charged: the charge is the paper's (every list a search
// names, at its full length), while intersections gallop through the
// longer list, so a handful of candidates costs a handful of seeks.

// seek returns the index of the first docid in docs[from:] that is at
// least id, or len(docs). It gallops: probes at from+1, +2, +4, ... bracket
// the answer and a binary search finds it, so k ascending seeks over a
// list of n docids cost O(k log(n/k)).
func seek(docs []DocID, from int, id DocID) int {
	if from >= len(docs) || docs[from] >= id {
		return from
	}
	// docs[lo] < id throughout; docs[hi] >= id or hi == len(docs) at the end.
	lo, step := from, 1
	hi := lo + step
	for hi < len(docs) && docs[hi] < id {
		lo = hi
		step *= 2
		hi = lo + step
	}
	if hi > len(docs) {
		hi = len(docs)
	}
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if docs[mid] < id {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// intersectIDs returns the sorted intersection of two sorted docid lists,
// seeking each docid of the shorter list in the longer.
func intersectIDs(a, b []DocID) []DocID {
	if len(a) > len(b) {
		a, b = b, a
	}
	var out []DocID
	j := 0
	for _, id := range a {
		if j = seek(b, j, id); j == len(b) {
			break
		}
		if b[j] == id {
			out = append(out, id)
		}
	}
	return out
}

// unionIDs returns the sorted union of two sorted docid lists.
func unionIDs(a, b []DocID) []DocID {
	out := make([]DocID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// unionAll returns the sorted union of sorted docid lists in one output
// slice. More than two lists are merged in one pass: a heap ordered by
// each list's next docid yields the docids in order, and a docid several
// lists share is written once. unionAll reorders parts; a single
// non-empty list is returned as it is.
func unionAll(parts [][]DocID) []DocID {
	h := parts[:0]
	total := 0
	for _, p := range parts {
		if len(p) > 0 {
			h = append(h, p)
			total += len(p)
		}
	}
	switch len(h) {
	case 0:
		return nil
	case 1:
		return h[0]
	case 2:
		return unionIDs(h[0], h[1])
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	out := make([]DocID, 0, total)
	for len(h) > 0 {
		id := h[0][0]
		if n := len(out); n == 0 || out[n-1] != id {
			out = append(out, id)
		}
		if h[0] = h[0][1:]; len(h[0]) == 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0)
	}
	return out
}

// siftDown restores the heap order of h, by first docid, below i.
func siftDown(h [][]DocID, i int) {
	for {
		m := i
		if l := 2*i + 1; l < len(h) && h[l][0] < h[m][0] {
			m = l
		}
		if r := 2*i + 2; r < len(h) && h[r][0] < h[m][0] {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// diffIDs returns the sorted difference a \ b of two sorted docid lists.
func diffIDs(a, b []DocID) []DocID {
	var out []DocID
	i, j := 0, 0
	for i < len(a) {
		for j < len(b) && b[j] < a[i] {
			j++
		}
		if j < len(b) && b[j] == a[i] {
			i++
			continue
		}
		out = append(out, a[i])
		i++
	}
	return out
}

// complementIDs returns the docids in [0, n) that are not in the sorted
// list neg.
func complementIDs(n int, neg []DocID) []DocID {
	if n == len(neg) {
		return nil
	}
	out := make([]DocID, 0, n-len(neg))
	j := 0
	for id := DocID(0); int(id) < n; id++ {
		if j < len(neg) && neg[j] == id {
			j++
			continue
		}
		out = append(out, id)
	}
	return out
}
