package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"textjoin/internal/core"
	"textjoin/internal/gateway"
	"textjoin/internal/ingest"
	"textjoin/internal/relation"
	"textjoin/internal/replica"
	"textjoin/internal/shard"
	"textjoin/internal/texservice"
	"textjoin/internal/workload"
)

// Serving configuration, the same for every workload.
const (
	searchCacheSize = 256
	probeCacheSize  = 256
	queryTimeout    = 30 * time.Second // queryd's shipped default
	fleetPartitions = 2
	fleetReplicas   = 2
	textSource      = "mercury"
)

var shortFields = []string{"title", "author", "year"}

// textKind selects what serves the text source.
type textKind int

const (
	textLocal textKind = iota // in-process texservice.Local
	textFleet                 // 2 partitions x 2 replicas of texservice.Server over loopback TCP
	textLive                  // in-process ingest.Live over a WAL-backed ingest.Store
)

// dataset is everything a workload's stack serves: generated from the
// seed by the benchmark, handed to the program as tables and an index.
type dataset struct {
	corpus *workload.Corpus
	tables []*relation.Table
}

// stack is one assembled serving stack: core.Engine behind
// gateway.Gateway over the workload's text source, wired the way
// cmd/queryd and internal/appcfg wire it.
type stack struct {
	eng    *core.Engine
	gw     *gateway.Gateway
	cached *texservice.Cached
	probe  *texservice.ProbeCache
	fleet  *replica.Fleet // textFleet only
	store  *ingest.Store  // textLive only
	dir    string         // textLive only: the store's durability directory

	closers []func()
}

// close releases the stack in reverse construction order.
func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// buildStack assembles the serving stack for ds. With a tracer every
// text-service boundary is wrapped in a timed decorator and the caches
// are stacked by hand in the engine's order (Cached inside ProbeCache) so
// that one decorator can sit above them; without one the engine builds
// the caches itself and no benchmark code is on the query path.
func buildStack(ds *dataset, kind textKind, workers int, tr *tracer, dir string, compactThreshold int) (*stack, error) {
	st := &stack{dir: dir}
	ok := false
	defer func() {
		if !ok {
			st.close()
		}
	}()

	var below texservice.Service
	switch kind {
	case textLocal:
		local, err := texservice.NewLocal(ds.corpus.Index, texservice.WithShortFields(shortFields...))
		if err != nil {
			return nil, err
		}
		below = newTimed(tr, layerBackend, -1, local)
	case textLive:
		store, err := ingest.Open(ds.corpus.Index, ingest.Options{Dir: dir, CompactThreshold: compactThreshold})
		if err != nil {
			return nil, err
		}
		st.store = store
		st.closers = append(st.closers, func() { _ = store.Close() })
		below = newTimed(tr, layerBackend, -1, ingest.NewLive(store, ingest.WithShortFields(shortFields...)))
	case textFleet:
		sharded, err := st.buildFleet(ds, workers, tr)
		if err != nil {
			return nil, err
		}
		below = newTimed(tr, layerShard, -1, sharded)
	}

	opts := core.DefaultOptions() // PrL optimizer
	opts.Optimizer.BatchProbe = true
	top := below
	if tr == nil {
		opts.SearchCache = searchCacheSize
		opts.ProbeCache = probeCacheSize
	} else {
		top = newTimed(tr, layerCache, -1,
			texservice.NewProbeCache(texservice.NewCached(below, searchCacheSize), probeCacheSize))
	}
	st.eng = core.NewEngineWith(opts)
	for _, tbl := range ds.tables {
		if err := st.eng.RegisterTable(tbl); err != nil {
			return nil, err
		}
	}
	if err := st.eng.RegisterTextSource(textSource, top, ds.corpus.Fields()...); err != nil {
		return nil, err
	}
	// Find the caches the way gateway.New does.
	for s := st.eng.TextService(textSource); s != nil; {
		switch d := s.(type) {
		case *texservice.Cached:
			st.cached = d
		case *texservice.ProbeCache:
			st.probe = d
		}
		u, isWrapper := s.(interface{ Unwrap() texservice.Service })
		if !isWrapper {
			break
		}
		s = u.Unwrap()
	}
	if st.cached == nil || st.probe == nil {
		return nil, errors.New("benchmark: engine stack has no search/probe cache")
	}

	gcfg := gateway.Config{Workers: workers, QueueDepth: 4 * workers, QueryTimeout: queryTimeout}
	if st.fleet != nil {
		gcfg.ReplicaStats = st.fleet.Stats
	}
	st.gw = gateway.New(st.eng, gcfg)
	st.closers = append(st.closers, func() { _ = st.gw.Drain(context.Background()) })
	ok = true
	return st, nil
}

// buildFleet serves the corpus from fleetPartitions x fleetReplicas
// texservice.Servers on loopback TCP and composes the clients exactly as
// appcfg.DialText does for "a|b,c|d": shard.New over replica.NewFleet
// with the shipped routing defaults (adaptive-p95 hedging on). The
// replicas of one partition share its frozen index.
func (st *stack) buildFleet(ds *dataset, pool int, tr *tracer) (*shard.Sharded, error) {
	parts, err := ds.corpus.Index.Partition(fleetPartitions)
	if err != nil {
		return nil, err
	}
	groups := make([][]texservice.Service, fleetPartitions)
	peer := 0
	for p, part := range parts {
		for r := 0; r < fleetReplicas; r++ {
			local, err := texservice.NewLocal(part, texservice.WithShortFields(shortFields...))
			if err != nil {
				return nil, err
			}
			srv := texservice.NewServer(newTimed(tr, layerBackend, peer, local))
			// Cancelled hedge losers close their connection mid-reply; the
			// server's log lines about that are noise here.
			srv.Logf = func(string, ...interface{}) {}
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			st.closers = append(st.closers, func() { _ = srv.Close() })
			rem, err := texservice.Dial(addr, nil, texservice.WithPoolSize(pool))
			if err != nil {
				return nil, fmt.Errorf("dialing partition %d replica %d: %w", p, r, err)
			}
			st.closers = append(st.closers, func() { _ = rem.Close() })
			groups[p] = append(groups[p], newTimed(tr, layerWire, peer, rem))
			peer++
		}
	}
	fleet, err := replica.NewFleet(groups, replica.WithSeed(1))
	if err != nil {
		return nil, err
	}
	st.fleet = fleet
	sets := fleet.Services()
	for i, set := range sets {
		sets[i] = newTimed(tr, layerReplica, -1, set)
	}
	return shard.New(sets)
}
