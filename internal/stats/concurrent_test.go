package stats

import (
	"reflect"
	"sync"
	"testing"

	"textjoin/internal/textidx"
)

// TestEstimatorConcurrent: a gateway plans queries from many goroutines
// against one shared estimator, so Predicate and Selection must be safe
// under concurrency and keep returning the same (cached) answers. Run
// with -race.
func TestEstimatorConcurrent(t *testing.T) {
	svc, tbl := fixture(t)
	est := New(svc, WithSampleSize(100))

	refPred, err := est.Predicate(tbl, "name", "author")
	if err != nil {
		t.Fatal(err)
	}
	sel := textidx.Term{Field: "title", Word: "text"}
	refSel, err := est.Selection(sel)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				p, err := est.Predicate(tbl, "name", "author")
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(p, refPred) {
					t.Errorf("concurrent Predicate = %+v, want %+v", p, refPred)
					return
				}
				s, err := est.Selection(sel)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(s, refSel) {
					t.Errorf("concurrent Selection = %+v, want %+v", s, refSel)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestEstimatorConcurrentColdStart: concurrent first-time estimates (no
// pre-warmed cache) must not race; every caller gets the estimate the
// single winning sampling pass computed.
func TestEstimatorConcurrentColdStart(t *testing.T) {
	svc, tbl := fixture(t)
	est := New(svc, WithSampleSize(100))
	results := make([]Estimate, 8)
	var wg sync.WaitGroup
	for w := range results {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p, err := est.Predicate(tbl, "name", "author")
			if err != nil {
				t.Error(err)
				return
			}
			results[w] = p
		}(w)
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("cold-start estimates diverge: %+v vs %+v", results[i], results[0])
		}
	}
}
