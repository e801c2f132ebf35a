package join

import (
	"context"
	"testing"

	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
)

// partialService answers every search and batch from its inner service
// but marks each answer Partial, as a best-effort federation that lost a
// shard does.
type partialService struct{ *texservice.Local }

func (p partialService) Search(ctx context.Context, e textidx.Expr, form texservice.Form) (*texservice.Result, error) {
	return texservice.Single(p.BatchSearch(ctx, []textidx.Expr{e}, form))
}

func (p partialService) BatchSearch(ctx context.Context, exprs []textidx.Expr, form texservice.Form) ([]*texservice.Result, error) {
	results, err := p.Local.BatchSearch(ctx, exprs, form)
	if err != nil {
		return nil, err
	}
	flagged := make([]*texservice.Result, len(results))
	for i, res := range results {
		flagged[i] = &texservice.Result{Fields: res.Fields, Hits: res.Hits, Postings: res.Postings, Partial: true}
	}
	return flagged, nil
}

// TestStatsPartial: every method, batched paths and the probe reducer
// included, reports Stats.Partial exactly when a search answer it
// consumed was partial.
func TestStatsPartial(t *testing.T) {
	ix := corpus(t)
	spec := q3Spec(t, false)
	spec.TextSel = textidx.Term{Field: "year", Word: "1994"}
	methods := append(failingMethods(),
		TS{Batched: true},
		PTS{ProbeColumns: []string{"name"}, Batched: true},
		PRTP{ProbeColumns: []string{"name"}, Batched: true})
	for _, partial := range []bool{false, true} {
		var svc texservice.Service = service(t, ix)
		if partial {
			svc = partialService{service(t, ix)}
		}
		for _, m := range methods {
			if err := m.Applicable(spec, svc); err != nil {
				t.Fatalf("%s not applicable: %v", m.Name(), err)
			}
			res, err := m.Execute(bg, spec, svc)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Partial != partial {
				t.Errorf("%s over partial answers %v: Stats.Partial = %v", m.Name(), partial, res.Stats.Partial)
			}
		}
		for _, batched := range []bool{false, true} {
			_, st, err := ProbeReduce(bg, spec, []string{"name"}, svc, batched)
			if err != nil {
				t.Fatal(err)
			}
			if st.Partial != partial {
				t.Errorf("ProbeReduce batched=%v over partial answers %v: Stats.Partial = %v", batched, partial, st.Partial)
			}
		}
	}
}
