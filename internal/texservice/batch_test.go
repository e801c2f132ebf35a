package texservice

import (
	"testing"

	"textjoin/internal/textidx"
)

func extIDs(r *Result) []string {
	out := make([]string, len(r.Hits))
	for i, h := range r.Hits {
		out[i] = h.ExtID
	}
	return out
}

func sameExtIDs(a, b *Result) bool {
	x, y := extIDs(a), extIDs(b)
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// TestSearchBatchSplitsUnderTermLimit: five one-term probes against a
// two-term limit travel in three invocations, aligned with what plain
// searches of the same expressions return.
func TestSearchBatchSplitsUnderTermLimit(t *testing.T) {
	svc, err := NewLocal(testIndex(t), WithMaxTerms(2))
	if err != nil {
		t.Fatal(err)
	}
	exprs := []textidx.Expr{
		textidx.Term{Field: "title", Word: "belief"},
		textidx.Term{Field: "title", Word: "text"},
		textidx.Term{Field: "author", Word: "gravano"},
		textidx.Term{Field: "title", Word: "filtering"},
		textidx.Term{Field: "year", Word: "1994"},
	}
	results, invocations, err := SearchBatch(bg, svc, exprs, FormShort)
	if err != nil {
		t.Fatal(err)
	}
	if invocations != 3 { // ⌈5/2⌉
		t.Errorf("%d invocations, want 3", invocations)
	}
	if u := svc.Meter().Snapshot(); u.Searches != invocations {
		t.Errorf("meter charged %d searches for %d invocations", u.Searches, invocations)
	}
	ref, err := NewLocal(testIndex(t), WithMaxTerms(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range exprs {
		want, err := ref.Search(bg, e, FormShort)
		if err != nil {
			t.Fatal(err)
		}
		if !sameExtIDs(results[i], want) {
			t.Errorf("expr %d: batch returned %v, plain search %v", i, extIDs(results[i]), extIDs(want))
		}
	}
}

// TestSearchBatchWithoutCapability: a service that cannot batch still
// answers — one plain search per expression.
func TestSearchBatchWithoutCapability(t *testing.T) {
	local, err := NewLocal(testIndex(t), WithMaxTerms(2))
	if err != nil {
		t.Fatal(err)
	}
	exprs := []textidx.Expr{
		textidx.Term{Field: "title", Word: "belief"},
		textidx.Term{Field: "title", Word: "text"},
		textidx.Term{Field: "author", Word: "kao"},
	}
	results, invocations, err := SearchBatch(bg, capless{local}, exprs, FormShort)
	if err != nil {
		t.Fatal(err)
	}
	if invocations != len(exprs) {
		t.Errorf("%d invocations, want one per expression (%d)", invocations, len(exprs))
	}
	for i, r := range results {
		if r == nil {
			t.Errorf("expr %d: missing result", i)
		}
	}
}

// TestSearchBatchOversizeExpr: an expression that alone exceeds the term
// limit fails exactly as a plain search of it would — batching must not
// mask (or alter) the service's refusal.
func TestSearchBatchOversizeExpr(t *testing.T) {
	svc, err := NewLocal(testIndex(t), WithMaxTerms(2))
	if err != nil {
		t.Fatal(err)
	}
	wide := textidx.And{
		textidx.Term{Field: "title", Word: "belief"},
		textidx.Term{Field: "title", Word: "update"},
		textidx.Term{Field: "year", Word: "1993"},
	}
	_, wantErr := svc.Search(bg, wide, FormShort)
	if wantErr == nil {
		t.Fatal("plain search of a 3-term expression passed a 2-term limit")
	}
	exprs := []textidx.Expr{textidx.Term{Field: "title", Word: "text"}, wide}
	_, _, err = SearchBatch(bg, svc, exprs, FormShort)
	if err == nil {
		t.Fatal("batch masked the oversize expression's failure")
	}
	if err.Error() != wantErr.Error() {
		t.Errorf("batch error %q, plain search error %q", err, wantErr)
	}
}

// TestProbeCacheNormalizedKey: probes that differ only in conjunct order
// share one entry — the second hits without touching the backend.
func TestProbeCacheNormalizedKey(t *testing.T) {
	local, err := NewLocal(testIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	c := NewProbeCache(local, 10)
	ab := textidx.And{
		textidx.Term{Field: "title", Word: "text"},
		textidx.Term{Field: "year", Word: "1994"},
	}
	ba := textidx.And{
		textidx.Term{Field: "year", Word: "1994"},
		textidx.Term{Field: "title", Word: "text"},
	}
	first, err := c.Search(bg, ab, FormShort)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Search(bg, ba, FormShort)
	if err != nil {
		t.Fatal(err)
	}
	if !sameExtIDs(first, second) {
		t.Fatal("reordered conjunction returned different documents")
	}
	if u := c.Meter().Snapshot(); u.Searches != 1 {
		t.Errorf("meter charged %d searches, want 1 (second probe should hit)", u.Searches)
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", hits, misses)
	}
}

// TestProbeCacheLongFormBypasses: long-form searches are result
// transmission, not probing — they pass through untouched.
func TestProbeCacheLongFormBypasses(t *testing.T) {
	local, err := NewLocal(testIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	c := NewProbeCache(local, 10)
	q := textidx.Term{Field: "title", Word: "text"}
	for i := 0; i < 2; i++ {
		if _, err := c.Search(bg, q, FormLong); err != nil {
			t.Fatal(err)
		}
	}
	if u := c.Meter().Snapshot(); u.Searches != 2 {
		t.Errorf("meter charged %d searches, want 2 (long form uncached)", u.Searches)
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 0 {
		t.Errorf("hits=%d misses=%d, want 0/0 for long-form traffic", hits, misses)
	}
}

// TestProbeCacheInvalidate: invalidation drops every entry, so the next
// probe goes back to the service. It must NOT move the index version —
// that space belongs to the store, and burning a value would make the
// next write's SetIndexVersion a silent no-op.
func TestProbeCacheInvalidate(t *testing.T) {
	local, err := NewLocal(testIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	c := NewProbeCache(local, 10)
	q := textidx.Term{Field: "title", Word: "text"}
	if _, err := c.Search(bg, q, FormShort); err != nil {
		t.Fatal(err)
	}
	v0 := c.Version()
	c.Invalidate()
	if c.Version() != v0 {
		t.Errorf("version %d after invalidation, want %d (version space belongs to the store)", c.Version(), v0)
	}
	if got := c.Invalidations(); got != 1 {
		t.Errorf("%d invalidations recorded, want 1", got)
	}
	if _, err := c.Search(bg, q, FormShort); err != nil {
		t.Fatal(err)
	}
	if u := c.Meter().Snapshot(); u.Searches != 2 {
		t.Errorf("meter charged %d searches, want 2 (entry must not survive invalidation)", u.Searches)
	}
}

// TestProbeCacheEvicts: the LRU holds cap entries; the oldest falls out.
func TestProbeCacheEvicts(t *testing.T) {
	local, err := NewLocal(testIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	c := NewProbeCache(local, 1)
	a := textidx.Term{Field: "title", Word: "text"}
	b := textidx.Term{Field: "title", Word: "belief"}
	for _, q := range []textidx.Expr{a, b, a} {
		if _, err := c.Search(bg, q, FormShort); err != nil {
			t.Fatal(err)
		}
	}
	if u := c.Meter().Snapshot(); u.Searches != 3 {
		t.Errorf("meter charged %d searches, want 3 (first entry evicted)", u.Searches)
	}
}
