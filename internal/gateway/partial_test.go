package gateway_test

import (
	"slices"
	"strings"
	"testing"

	"textjoin/internal/core"
	"textjoin/internal/gateway"
	"textjoin/internal/shard"
	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
	"textjoin/internal/workload"
)

// federatedGateway builds a gateway over the demo database whose text
// source is a best-effort federation of three in-process shards; shard 1
// is replaced by whatever shard1 returns for it. cacheSize > 0 enables
// both the search cache and the probe cache.
func federatedGateway(t *testing.T, cacheSize int, shard1 func(texservice.Service) texservice.Service) *gateway.Gateway {
	t.Helper()
	demo := workload.NewDemo(600, 6)
	svc, err := shard.NewLocalCluster(demo.Corpus.Index, 3,
		[]texservice.LocalOption{texservice.WithShortFields("title", "author", "year")},
		func(k int, svc texservice.Service) texservice.Service {
			if k == 1 {
				return shard1(svc)
			}
			return svc
		},
		shard.WithBestEffort())
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.SearchCache = cacheSize
	opts.ProbeCache = cacheSize
	eng := core.NewEngineWith(opts)
	for _, tbl := range demo.Catalog.Tables {
		if err := eng.RegisterTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.RegisterTextSource("mercury", svc, demo.Corpus.Fields()...); err != nil {
		t.Fatal(err)
	}
	return gateway.New(eng, gateway.Config{Workers: 2})
}

// sortedRows renders a response's rows as a sorted list, so answers from
// different plans compare as multisets.
func sortedRows(resp *gateway.Response) []string {
	out := make([]string, len(resp.Rows))
	for i, row := range resp.Rows {
		out[i] = strings.Join(row, "\x1f")
	}
	slices.Sort(out)
	return out
}

// partialTotal reads textjoin_queries_partial_total off the exposition.
func partialTotal(t *testing.T, gw *gateway.Gateway) float64 {
	t.Helper()
	var b strings.Builder
	gw.WriteMetrics(&b)
	return validatePromText(t, b.String())["textjoin_queries_partial_total"]
}

// TestGatewayFlagsPartialAnswers: a best-effort federation that lost a
// shard answers with the surviving shards' rows, and the gateway says so
// — Response.Partial and textjoin_queries_partial_total — with the
// caches on and off (a partial search answer is never cached, so a cache
// cannot hide the loss either). A healthy federation is not flagged. The
// surviving rows are the answer of a federation whose shard 1 holds no
// documents at all.
func TestGatewayFlagsPartialAnswers(t *testing.T) {
	dead := func(svc texservice.Service) texservice.Service {
		return texservice.NewFaulty(svc, texservice.FaultConfig{ErrorEvery: 1})
	}
	healthy := func(svc texservice.Service) texservice.Service { return svc }
	empty := func(texservice.Service) texservice.Service {
		ix := textidx.NewIndex()
		ix.Freeze()
		local, err := texservice.NewLocal(ix, texservice.WithShortFields("title", "author", "year"))
		if err != nil {
			t.Fatal(err)
		}
		return local
	}
	queries := testQueries[:2] // both join the text source
	for _, cacheSize := range []int{0, 64} {
		full := federatedGateway(t, cacheSize, healthy)
		degraded := federatedGateway(t, cacheSize, dead)
		surviving := federatedGateway(t, cacheSize, empty)
		for _, q := range queries {
			// Twice: the second run may be answered from the caches.
			for run := 0; run < 2; run++ {
				want, err := full.Query(bg, q)
				if err != nil {
					t.Fatal(err)
				}
				if want.Partial {
					t.Fatalf("cache %d: healthy federation flagged partial", cacheSize)
				}
				got, err := degraded.Query(bg, q)
				if err != nil {
					t.Fatalf("cache %d: best-effort query with a dead shard failed: %v", cacheSize, err)
				}
				if !got.Partial {
					t.Errorf("cache %d run %d: answer that lost a shard not flagged partial", cacheSize, run)
				}
				ref, err := surviving.Query(bg, q)
				if err != nil {
					t.Fatal(err)
				}
				if ref.Partial {
					t.Fatalf("cache %d: federation with an empty shard flagged partial", cacheSize)
				}
				if !slices.Equal(sortedRows(got), sortedRows(ref)) {
					t.Errorf("cache %d run %d: %d rows with a dead shard, want the %d surviving rows",
						cacheSize, run, len(got.Rows), len(ref.Rows))
				}
				if len(got.Rows) >= len(want.Rows) {
					t.Fatalf("cache %d: dead shard lost no rows (%d of %d); the test is vacuous",
						cacheSize, len(got.Rows), len(want.Rows))
				}
			}
		}
		if n := partialTotal(t, degraded); n != float64(2*len(queries)) {
			t.Errorf("cache %d: textjoin_queries_partial_total = %g, want %d", cacheSize, n, 2*len(queries))
		}
		if n := partialTotal(t, full); n != 0 {
			t.Errorf("cache %d: healthy textjoin_queries_partial_total = %g, want 0", cacheSize, n)
		}
	}
}
