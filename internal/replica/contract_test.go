package replica_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"textjoin/internal/ingest"
	"textjoin/internal/obs"
	"textjoin/internal/replica"
	"textjoin/internal/shard"
	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
)

// This file holds the contract every request-serving text service keeps:
// Search is BatchSearch of one, an over-limit request fails with a
// *texservice.TermLimitError on both paths, and a capability a layer
// cannot offer is refused with its sentinel, which no layer mistakes for
// a failure. It lives here because this package's tests may import every
// implementation.

// servingImpl builds a fresh instance of one request-serving service over
// the fixture collection, with the given term limit.
type servingImpl struct {
	name  string
	layer string // span prefix: <layer>.search, <layer>.batchsearch
	build func(t *testing.T, maxTerms int) texservice.Service
}

// serve puts svc behind a Server on a loopback port and dials it.
func serve(t *testing.T, svc texservice.Service) *texservice.Remote {
	t.Helper()
	srv := texservice.NewServer(svc)
	srv.Logf = t.Logf
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	remote, err := texservice.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })
	return remote
}

func limitedLocal(t *testing.T, ix *textidx.Index, maxTerms int) *texservice.Local {
	t.Helper()
	svc, err := texservice.NewLocal(ix, texservice.WithShortFields("title", "author", "year"),
		texservice.WithMaxTerms(maxTerms))
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func servingImpls() []servingImpl {
	sharded := func(t *testing.T, maxTerms int, failing bool, opts ...shard.Option) texservice.Service {
		parts, err := fixture(t).Partition(2)
		if err != nil {
			t.Fatal(err)
		}
		var second texservice.Service = limitedLocal(t, parts[1], maxTerms)
		if failing {
			second = texservice.NewFaulty(second, texservice.FaultConfig{ErrorEvery: 1})
		}
		s, err := shard.New([]texservice.Service{limitedLocal(t, parts[0], maxTerms), second}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return []servingImpl{
		{"Local", "local", func(t *testing.T, maxTerms int) texservice.Service {
			return limitedLocal(t, fixture(t), maxTerms)
		}},
		{"Live", "live", func(t *testing.T, maxTerms int) texservice.Service {
			store, err := ingest.Open(fixture(t), ingest.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return ingest.NewLive(store, texservice.WithShortFields("title", "author", "year"),
				texservice.WithMaxTerms(maxTerms))
		}},
		{"Remote", "remote", func(t *testing.T, maxTerms int) texservice.Service {
			return serve(t, limitedLocal(t, fixture(t), maxTerms))
		}},
		{"Sharded", "shard", func(t *testing.T, maxTerms int) texservice.Service {
			return sharded(t, maxTerms, false)
		}},
		{"Sharded/best-effort", "shard", func(t *testing.T, maxTerms int) texservice.Service {
			return sharded(t, maxTerms, true, shard.WithBestEffort())
		}},
		{"Set", "replica", func(t *testing.T, maxTerms int) texservice.Service {
			ix := fixture(t)
			s, err := replica.New([]texservice.Service{limitedLocal(t, ix, maxTerms), limitedLocal(t, ix, maxTerms)},
				replica.WithoutHedging(), replica.WithSeed(3))
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
	}
}

// TestSearchIsBatchOfOne: on every implementation, Search(e) answers
// exactly what BatchSearch([e])[0] answers — hits, postings, the Partial
// flag — and charges the meter exactly the same usage; each path records
// its own span.
func TestSearchIsBatchOfOne(t *testing.T) {
	exprs := []textidx.Expr{
		textidx.Term{Field: "title", Word: "text"},
		textidx.Phrase{Field: "title", Words: []string{"belief", "update"}},
		textidx.And{textidx.Term{Field: "title", Word: "pws"}, textidx.Term{Field: "author", Word: "kao"}},
		textidx.Or{textidx.Term{Field: "author", Word: "radhika"}, textidx.Prefix{Field: "title", Stem: "filt"}},
		textidx.And{textidx.Term{Field: "year", Word: "1993"}, textidx.Not{E: textidx.Term{Field: "author", Word: "gravano"}}},
		textidx.Term{Field: "title", Word: "zebra"},
	}
	for _, impl := range servingImpls() {
		t.Run(impl.name, func(t *testing.T) {
			for _, form := range []texservice.Form{texservice.FormShort, texservice.FormLong} {
				for _, e := range exprs {
					single := impl.build(t, texservice.DefaultMaxTerms)
					ctx, rec := traced()
					want, err := single.Search(ctx, e, form)
					if err != nil {
						t.Fatalf("Search(%s, %s): %v", e, form, err)
					}
					requireSpan(t, rec, impl.layer+".search")
					batched := impl.build(t, texservice.DefaultMaxTerms)
					ctx, rec = traced()
					got, err := batched.BatchSearch(ctx, []textidx.Expr{e}, form)
					if err != nil {
						t.Fatalf("BatchSearch([%s], %s): %v", e, form, err)
					}
					requireSpan(t, rec, impl.layer+".batchsearch")
					if len(got) != 1 || !reflect.DeepEqual(got[0], want) {
						t.Errorf("%s, %s: BatchSearch of one = %+v, Search = %+v", e, form, got, want)
					}
					if impl.name == "Sharded/best-effort" && !want.Partial {
						t.Errorf("%s: a failing shard under best effort did not mark the result Partial", e)
					}
					if u, v := batched.Meter().Snapshot(), single.Meter().Snapshot(); u != v {
						t.Errorf("%s, %s: BatchSearch of one charged %+v, Search %+v", e, form, u, v)
					}
				}
			}
		})
	}
}

func traced() (context.Context, *obs.Recorder) {
	rec := obs.NewRecorder("query")
	return obs.WithRecorder(bg, rec), rec
}

// requireSpan fails unless the recorded trace has a span with the name.
func requireSpan(t *testing.T, rec *obs.Recorder, name string) {
	t.Helper()
	rec.Root().End()
	var find func(s obs.SpanSnapshot) bool
	find = func(s obs.SpanSnapshot) bool {
		if s.Name == name {
			return true
		}
		for _, c := range s.Children {
			if find(c) {
				return true
			}
		}
		return false
	}
	if snap := rec.Root().Snapshot(); !find(snap) {
		t.Fatalf("no %s span in %+v", name, snap)
	}
}

// TestTermLimitErrorsAreTyped: an over-limit request is refused with a
// *texservice.TermLimitError by Search and by BatchSearch, on every
// implementation.
func TestTermLimitErrorsAreTyped(t *testing.T) {
	three := textidx.And{
		textidx.Term{Field: "title", Word: "text"},
		textidx.Term{Field: "author", Word: "kao"},
		textidx.Term{Field: "year", Word: "1994"},
	}
	for _, impl := range servingImpls() {
		t.Run(impl.name, func(t *testing.T) {
			svc := impl.build(t, 2)
			_, searchErr := svc.Search(bg, three, texservice.FormShort)
			_, batchErr := svc.BatchSearch(bg, []textidx.Expr{three[0], three[1], three[2]}, texservice.FormShort)
			for op, err := range map[string]error{"Search": searchErr, "BatchSearch": batchErr} {
				var tle *texservice.TermLimitError
				if !errors.As(err, &tle) {
					t.Errorf("%s over the limit: %v (%T), want a *TermLimitError", op, err, err)
					continue
				}
				if tle.Terms != 3 || tle.Limit != 2 {
					t.Errorf("%s: TermLimitError{Terms: %d, Limit: %d}, want {3, 2}", op, tle.Terms, tle.Limit)
				}
			}
			if u := svc.Meter().Snapshot(); u != (texservice.Usage{}) {
				t.Errorf("refused requests charged %+v", u)
			}
		})
	}
}

// TestNewChecksMemberShape: replicas that disagree on their short-form
// fields are rejected, naming the replica, and the smallest replica term
// limit governs the Set.
func TestNewChecksMemberShape(t *testing.T) {
	ix := fixture(t)
	a, _ := texservice.NewLocal(ix, texservice.WithShortFields("title"))
	b, _ := texservice.NewLocal(ix, texservice.WithShortFields("author"))
	if _, err := replica.New([]texservice.Service{a, b}); err == nil ||
		!strings.Contains(err.Error(), "replica 1 short-form fields") {
		t.Fatalf("mismatched short fields: %v", err)
	}
	s, err := replica.New([]texservice.Service{limitedLocal(t, ix, 9), limitedLocal(t, ix, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if s.MaxTerms() != 5 {
		t.Fatalf("MaxTerms = %d, want 5", s.MaxTerms())
	}
	big := make(textidx.And, 0, 6)
	for _, w := range []string{"a", "b", "c", "d", "e", "f"} {
		big = append(big, textidx.Term{Field: "title", Word: w})
	}
	var tle *texservice.TermLimitError
	if _, err := s.Search(bg, big, texservice.FormShort); !errors.As(err, &tle) || tle.Limit != 5 {
		t.Fatalf("6-term search against the 5-term replica: %v", err)
	}
}

// refuser refuses batched invocation and statistics, as a backend without
// them does. Over a Local, which refuses writes, it refuses every
// capability.
type refuser struct{ texservice.Service }

func (refuser) BatchSearch(context.Context, []textidx.Expr, texservice.Form) ([]*texservice.Result, error) {
	return nil, texservice.ErrNoBatch
}

func (refuser) TermDocFrequency(context.Context, string, string) (int, error) {
	return 0, texservice.ErrNoStats
}

// capability is one of the data capabilities every Service has, with the
// sentinel it is refused with.
type capability struct {
	name    string
	refusal error
	call    func(texservice.Service) error
}

var capabilities = []capability{
	{"BatchSearch", texservice.ErrNoBatch, func(svc texservice.Service) error {
		_, err := svc.BatchSearch(bg, []textidx.Expr{textidx.Term{Field: "title", Word: "text"}}, texservice.FormShort)
		return err
	}},
	{"TermDocFrequency", texservice.ErrNoStats, func(svc texservice.Service) error {
		_, err := svc.TermDocFrequency(bg, "title", "text")
		return err
	}},
	{"Ingest", texservice.ErrNoIngest, func(svc texservice.Service) error {
		_, err := svc.Ingest(bg, []texservice.IngestOp{putOp("contract", "Refusal Contract")})
		return err
	}},
	{"IndexVersion", texservice.ErrNoIngest, func(svc texservice.Service) error {
		_, err := svc.IndexVersion(bg)
		return err
	}},
}

// TestRefusalContract: over every layer, each capability either answers
// or is refused with its sentinel, and a refusal is an answer, not a
// failure. Each layer is built over read-only backends — Locals, which
// batch and export statistics but refuse writes, or refusers, which
// refuse everything — and must refuse exactly what its backends refuse;
// Local and Live stand alone. Every capability is called five times, so
// a routing layer that counted refusals as failures would have ejected
// its replicas (Ejections, Lagging) or queued a refused batch for replay.
// A best-effort federation with one refusing shard must refuse too, not
// answer Partial without that shard.
func TestRefusalContract(t *testing.T) {
	readOnly := map[string]bool{"Ingest": true, "IndexVersion": true}
	everything := map[string]bool{"BatchSearch": true, "TermDocFrequency": true, "Ingest": true, "IndexVersion": true}
	backends := []struct {
		name    string
		build   func(t *testing.T, ix *textidx.Index) texservice.Service
		refuses map[string]bool
	}{
		{"Local", func(t *testing.T, ix *textidx.Index) texservice.Service { return limitedLocal(t, ix, 70) }, readOnly},
		{"refuser", func(t *testing.T, ix *textidx.Index) texservice.Service {
			return refuser{limitedLocal(t, ix, 70)}
		}, everything},
	}
	type backend = func(t *testing.T, ix *textidx.Index) texservice.Service
	sharded := func(t *testing.T, b backend, opts ...shard.Option) texservice.Service {
		parts, err := fixture(t).Partition(2)
		if err != nil {
			t.Fatal(err)
		}
		// Only the second shard is the backend under test: a federation
		// refuses what any one shard refuses.
		s, err := shard.New([]texservice.Service{limitedLocal(t, parts[0], 70), b(t, parts[1])}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	replicated := func(t *testing.T, members ...texservice.Service) texservice.Service {
		s, err := replica.New(members, replica.WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	layers := []struct {
		name  string
		build func(t *testing.T, b backend) texservice.Service
		fixed map[string]bool // what a layer that stands alone refuses
	}{
		{"Local", func(t *testing.T, _ backend) texservice.Service { return limitedLocal(t, fixture(t), 70) }, readOnly},
		{"Live", func(t *testing.T, _ backend) texservice.Service {
			store, err := ingest.Open(fixture(t), ingest.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return ingest.NewLive(store)
		}, map[string]bool{}},
		{"Remote", func(t *testing.T, b backend) texservice.Service { return serve(t, b(t, fixture(t))) }, nil},
		{"Cached", func(t *testing.T, b backend) texservice.Service { return texservice.NewCached(b(t, fixture(t)), 8) }, nil},
		{"ProbeCache", func(t *testing.T, b backend) texservice.Service {
			return texservice.NewProbeCache(b(t, fixture(t)), 8)
		}, nil},
		{"Retrying", func(t *testing.T, b backend) texservice.Service {
			return texservice.NewRetrying(b(t, fixture(t)), texservice.RetryPolicy{})
		}, nil},
		{"Faulty", func(t *testing.T, b backend) texservice.Service {
			return texservice.NewFaulty(b(t, fixture(t)), texservice.FaultConfig{})
		}, nil},
		{"Sharded", func(t *testing.T, b backend) texservice.Service { return sharded(t, b) }, nil},
		{"Sharded/best-effort", func(t *testing.T, b backend) texservice.Service {
			return sharded(t, b, shard.WithBestEffort())
		}, nil},
		{"Set", func(t *testing.T, b backend) texservice.Service {
			ix := fixture(t)
			return replicated(t, b(t, ix), b(t, ix))
		}, nil},
		// What queryd -remote 'a|b' builds against read-only textserves.
		{"Set of Remotes", func(t *testing.T, b backend) texservice.Service {
			ix := fixture(t)
			return replicated(t, serve(t, b(t, ix)), serve(t, b(t, ix)))
		}, nil},
	}
	for _, l := range layers {
		for _, b := range backends {
			refuses := b.refuses
			if l.fixed != nil {
				if b.name != "Local" {
					continue
				}
				refuses = l.fixed
			}
			name := l.name + "/" + b.name
			if l.fixed != nil {
				name = l.name
			}
			t.Run(name, func(t *testing.T) {
				svc := l.build(t, b.build)
				for _, c := range capabilities {
					for i := 0; i < 5; i++ {
						err := c.call(svc)
						switch {
						case !refuses[c.name] && err != nil:
							t.Fatalf("%s #%d: %v, want an answer", c.name, i, err)
						case refuses[c.name] && !errors.Is(err, c.refusal):
							t.Fatalf("%s #%d: %v, want %v", c.name, i, err, c.refusal)
						case err != nil && strings.Contains(err.Error(), "replay"):
							t.Fatalf("%s #%d: a refused batch was kept for replay: %v", c.name, i, err)
						}
					}
				}
				pinned := svc.PinSnapshot(bg)
				if pinned == nil || svc.SnapshotPinned(pinned) {
					t.Fatal("a fresh pin reads as behind the current state")
				}
				if s, ok := svc.(*replica.Set); ok {
					st := s.Stats()
					if st.Ejections != 0 || st.Failovers != 0 || st.Lagging != 0 || st.WritePending != 0 || len(s.Lagging()) != 0 {
						t.Fatalf("refusals counted as failures: %+v, lagging %v", st, s.Lagging())
					}
				}
			})
		}
	}
}
