package textidx

import "fmt"

// Corpus partitioning for the document-sharded text service: a frozen
// index can be split into n disjoint shard indexes, each holding the
// documents whose global docid hashes to that shard. Docids are dense
// (the i-th added document has DocID i), so the modulo hash is a perfect
// hash partition and — crucially — invertible by pure arithmetic:
//
//	shard(g)  = g mod n      (the partitioning invariant)
//	local(g)  = g div n      (dense per-shard docids, order-preserving)
//	global    = local*n + shard
//
// Because local docids grow monotonically with global docids within each
// shard, every shard's sorted search results map back to globally sorted
// results, and a k-way merge reconstructs exactly the single-index
// ordering. The shard layer (internal/shard) relies on these three
// equations; they are the whole contract between a sharded federation
// and the single-server ground truth.

// ShardOf returns the owning shard of a global docid under an n-way
// partition.
func ShardOf(g DocID, n int) int { return int(g) % n }

// LocalID returns the docid of a global document within its owning shard.
func LocalID(g DocID, n int) DocID { return g / DocID(n) }

// GlobalID reconstructs the global docid of shard-local document `local`
// on shard `shard` of an n-way partition.
func GlobalID(shard int, local DocID, n int) DocID {
	return local*DocID(n) + DocID(shard)
}

// Partition splits a frozen index into n shard indexes following the
// partitioning invariant above. Shard k receives documents k, k+n, k+2n,
// … in global order, re-indexed with dense local docids; every shard is
// returned frozen. Partition re-tokenizes each document, so the shard
// posting lists are exactly what indexing the shard's documents alone
// would build.
func (ix *Index) Partition(n int) ([]*Index, error) {
	if !ix.frozen {
		return nil, fmt.Errorf("textidx: Partition requires a frozen index")
	}
	if n < 1 {
		return nil, fmt.Errorf("textidx: cannot partition into %d shards", n)
	}
	shards := make([]*Index, n)
	for k := range shards {
		shards[k] = NewIndex()
	}
	for g, doc := range ix.docs {
		if _, err := shards[ShardOf(DocID(g), n)].Add(doc); err != nil {
			return nil, err
		}
	}
	for _, s := range shards {
		s.Freeze()
	}
	return shards, nil
}
