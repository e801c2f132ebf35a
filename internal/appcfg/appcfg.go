// Package appcfg is the engine configuration shared by the command-line
// binaries. fedql (the single-query / REPL tool) and queryd (the
// concurrent query server) assemble the same stack — demo or CSV tables
// plus a local, remote, or sharded-remote text service — so the flag
// names, help strings, defaults and wiring live here once, and the two
// binaries cannot drift apart.
package appcfg

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"textjoin/internal/core"
	"textjoin/internal/ingest"
	"textjoin/internal/optimizer"
	"textjoin/internal/relation"
	"textjoin/internal/replica"
	"textjoin/internal/shard"
	"textjoin/internal/texservice"
	"textjoin/internal/workload"
)

// TableList collects repeatable -table name=path.csv flags.
type TableList []string

// String implements flag.Value.
func (t *TableList) String() string { return strings.Join(*t, ",") }

// Set implements flag.Value.
func (t *TableList) Set(v string) error {
	*t = append(*t, v)
	return nil
}

// EngineConfig selects the tables, the text backend and the optimizer
// mode for one engine. Zero values are filled by Defaults; binaries may
// override individual defaults (e.g. queryd enables the search cache)
// before calling RegisterFlags.
type EngineConfig struct {
	Docs        int           // generated corpus size
	Seed        int64         // generation seed
	Mode        string        // optimizer mode: traditional, prl, greedy
	Remote      string        // textserve endpoint(s); comma-separated list = sharded cluster
	BestEffort  bool          // sharded remote: degrade on shard failure
	Pool        int           // remote connection-pool size
	Timeout     time.Duration // per-call remote timeout, 0 = none
	Retries     int           // remote attempt budget
	SearchCache int           // shared search-result LRU entries, 0 = off
	ProbeCache  int           // cross-query probe-result cache entries, 0 = off
	BatchProbe  bool          // let the optimizer batch probe round trips
	LiveIngest  bool          // mutable in-process index accepting live writes
	IngestDir   string        // WAL + snapshot directory for -live (implies -live)
	Replicas    int           // in-process replicas per partition (>1 enables the routing tier)
	Partitions  int           // partitions of the in-process replicated fleet
	Hedge       time.Duration // fixed hedge budget; 0 = adaptive p95, negative disables hedging
	Tables      TableList     // CSV tables as name=path.csv

	// Fleet is populated by BuildEngine (and DialText, with pipe-grouped
	// -remote endpoints) when replication is configured: the per-partition
	// routing Sets, for wiring routing stats into the gateway's /metrics.
	// Nil when the text stack is unreplicated.
	Fleet *replica.Fleet
}

// Defaults returns the shared defaults (in-process demo database, PrL
// optimizer, no cache).
func Defaults() EngineConfig {
	return EngineConfig{
		Docs:       2000,
		Seed:       1,
		Mode:       "prl",
		Pool:       texservice.DefaultPoolSize,
		Retries:    1,
		Replicas:   1,
		Partitions: 1,
	}
}

// RegisterFlags registers the shared engine flags on fs, using the
// config's current values as defaults and writing parsed values back into
// it.
func (c *EngineConfig) RegisterFlags(fs *flag.FlagSet) {
	fs.IntVar(&c.Docs, "docs", c.Docs, "corpus size for the generated text source")
	fs.Int64Var(&c.Seed, "seed", c.Seed, "generation seed")
	fs.StringVar(&c.Mode, "mode", c.Mode, "optimizer mode: traditional, prl, greedy")
	fs.StringVar(&c.Remote, "remote", c.Remote, "textserve address(es) instead of the in-process index; a comma-separated list (host:port,host:port,…) is treated as a document-sharded cluster in partition order, and pipe-grouped endpoints (a:1|a:2,b:1|b:2) as interchangeable replicas of each partition behind the load-aware routing tier")
	fs.BoolVar(&c.BestEffort, "besteffort", c.BestEffort, "with a sharded -remote list: degrade gracefully on shard failure instead of failing the query (results may be partial)")
	fs.IntVar(&c.Pool, "pool", c.Pool, "remote connection-pool size (with -remote)")
	fs.DurationVar(&c.Timeout, "timeout", c.Timeout, "per-call timeout against the remote server, 0 = none (with -remote)")
	fs.IntVar(&c.Retries, "retries", c.Retries, "total attempt budget for transient remote failures (with -remote)")
	fs.IntVar(&c.SearchCache, "cache", c.SearchCache, "shared search-result cache entries, 0 = off")
	fs.IntVar(&c.ProbeCache, "probe-cache", c.ProbeCache, "cross-query probe-result cache entries (keyed on normalized expressions), 0 = off")
	fs.BoolVar(&c.BatchProbe, "batch-probe", c.BatchProbe, "let the optimizer batch probe round trips: distinct probe bindings packed into few large OR searches under the service's term limit")
	fs.BoolVar(&c.LiveIngest, "live", c.LiveIngest, "serve the in-process text source from a mutable live-ingest index (accepts document writes); in-memory unless -ingest-dir is set")
	fs.StringVar(&c.IngestDir, "ingest-dir", c.IngestDir, "durability directory for the live-ingest index (WAL + snapshots); implies -live, replays any existing log on start")
	fs.IntVar(&c.Replicas, "replicas", c.Replicas, "serve the in-process corpus from this many interchangeable replicas per partition behind the load-aware routing tier (hedged requests, failover); 1 = unreplicated")
	fs.IntVar(&c.Partitions, "partitions", c.Partitions, "document partitions of the in-process replicated fleet (with -replicas > 1); each partition gets its own replica group")
	fs.DurationVar(&c.Hedge, "hedge", c.Hedge, "fixed hedge budget for replicated routing: launch a second replica attempt after this long; 0 = adaptive p95 budget, negative disables hedging")
	fs.Var(&c.Tables, "table", "register a CSV table as name=path.csv (repeatable)")
}

// DialText connects the remote text service: one endpoint is a plain
// client, several comma-separated endpoints are composed into a
// document-sharded federation (each endpoint serving one partition, in
// order — e.g. three textserve processes started with -shard 0/3, 1/3,
// 2/3). Pipe-grouped endpoints within a partition — "a:1|a:2,b:1|b:2"
// — are interchangeable replicas of that partition, fronted by the
// load-aware routing tier (power-of-two-choices selection, hedged
// requests, failover); the Fleet field is populated for stats wiring.
// Per-endpoint pools and timeouts apply to each backend, and so does
// -retries: each endpoint's client is wrapped in its own
// texservice.Retrying (see retryPolicy). The dial handshake itself is one
// attempt.
func (c *EngineConfig) DialText() (texservice.Service, func(), error) {
	dialOpts := []texservice.DialOption{texservice.WithPoolSize(c.Pool)}
	if c.Timeout > 0 {
		dialOpts = append(dialOpts, texservice.WithTimeout(c.Timeout))
	}
	var remotes []*texservice.Remote
	cleanup := func() {
		for _, r := range remotes {
			r.Close()
		}
	}
	// dial connects the i-th endpoint of the -remote list.
	dial := func(i int, ep string) (texservice.Service, error) {
		ep = strings.TrimSpace(ep)
		if ep == "" {
			return nil, fmt.Errorf("empty endpoint in -remote %q", c.Remote)
		}
		r, err := texservice.Dial(ep, nil, dialOpts...)
		if err != nil {
			return nil, fmt.Errorf("dialing %s: %w", ep, err)
		}
		remotes = append(remotes, r)
		if p, ok := c.retryPolicy(i); ok {
			return texservice.NewRetrying(r, p), nil
		}
		return r, nil
	}

	partitions := strings.Split(c.Remote, ",")
	replicated := strings.Contains(c.Remote, "|")
	if !replicated {
		// Unreplicated: plain client or sharded federation, as before.
		shards := make([]texservice.Service, len(partitions))
		for i, ep := range partitions {
			svc, err := dial(i, ep)
			if err != nil {
				cleanup()
				return nil, nil, err
			}
			shards[i] = svc
		}
		if len(shards) == 1 {
			return shards[0], cleanup, nil
		}
		svc, err := shard.New(shards, c.shardOptions()...)
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		return svc, cleanup, nil
	}

	// Replicated: each comma-separated group lists one partition's
	// replicas, pipe-separated. A replica that is down at dial time is
	// skipped with a warning rather than sinking the fleet — that is
	// the point of replication — but a partition with no reachable
	// replica at all is fatal, and so is a malformed endpoint list.
	groups := make([][]texservice.Service, len(partitions))
	i := 0 // endpoint index in list order, reachable or not
	for p, group := range partitions {
		for _, ep := range strings.Split(group, "|") {
			if strings.TrimSpace(ep) == "" {
				cleanup()
				return nil, nil, fmt.Errorf("empty endpoint in -remote %q", c.Remote)
			}
			r, err := dial(i, ep)
			i++
			if err != nil {
				fmt.Fprintf(os.Stderr, "warning: skipping unreachable replica: %v\n", err)
				continue
			}
			groups[p] = append(groups[p], r)
		}
		if len(groups[p]) == 0 {
			cleanup()
			return nil, nil, fmt.Errorf("partition %d of -remote %q: no reachable replicas", p, c.Remote)
		}
	}
	fleet, err := replica.NewFleet(groups, c.replicaOptions()...)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	c.Fleet = fleet
	if len(groups) == 1 {
		return fleet.Services()[0], cleanup, nil
	}
	svc, err := shard.New(fleet.Services(), c.shardOptions()...)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	return svc, cleanup, nil
}

// retryPolicy is the retry policy of the i-th endpoint of -remote, in
// list order, and whether -retries asks for retries at all. Every
// endpoint gets the same budget but its own jitter stream
// (texservice.DeriveSeed): endpoints that fail together, such as the
// shards of one scatter, must not back off in lockstep and re-converge on
// the struggling backends as one synchronized retry wave.
func (c *EngineConfig) retryPolicy(i int) (texservice.RetryPolicy, bool) {
	p := texservice.DefaultRetryPolicy()
	p.MaxAttempts = c.Retries
	p.Seed = texservice.DeriveSeed(p.Seed, i)
	return p, c.Retries > 1
}

// shardOptions maps the config onto the federation layer's options.
func (c *EngineConfig) shardOptions() []shard.Option {
	var opts []shard.Option
	if c.BestEffort {
		opts = append(opts, shard.WithBestEffort())
	}
	return opts
}

// replicaOptions maps the config onto the routing tier's options.
func (c *EngineConfig) replicaOptions() []replica.Option {
	var opts []replica.Option
	switch {
	case c.Hedge > 0:
		opts = append(opts, replica.WithHedgeAfter(c.Hedge))
	case c.Hedge < 0:
		opts = append(opts, replica.WithoutHedging())
	}
	if c.Seed != 0 {
		opts = append(opts, replica.WithSeed(c.Seed))
	}
	return opts
}

// BuildEngine assembles the engine the config describes: demo or CSV
// tables plus a local or remote text service registered as "mercury".
// The returned cleanup closes remote connections and is safe to call
// even on a nil error path exactly once.
func (c *EngineConfig) BuildEngine() (*core.Engine, func(), error) {
	opts := core.DefaultOptions()
	switch c.Mode {
	case "traditional":
		opts.Optimizer.Mode = optimizer.ModeTraditional
	case "prl":
		opts.Optimizer.Mode = optimizer.ModePrL
	case "greedy":
		opts.Optimizer.Mode = optimizer.ModePrLGreedy
	default:
		return nil, nil, fmt.Errorf("unknown mode %q", c.Mode)
	}
	opts.Seed = c.Seed
	opts.SearchCache = c.SearchCache
	opts.ProbeCache = c.ProbeCache
	opts.Optimizer.BatchProbe = c.BatchProbe

	demo := workload.NewDemo(c.Docs, c.Seed)
	cleanup := func() {}
	var svc texservice.Service
	localOpts := []texservice.LocalOption{texservice.WithShortFields("title", "author", "year")}
	if c.Remote != "" {
		var err error
		svc, cleanup, err = c.DialText()
		if err != nil {
			return nil, nil, err
		}
	} else if c.Replicas > 1 || c.Partitions > 1 {
		// In-process replicated fleet: each partition served by R
		// interchangeable replicas behind the routing tier (hedged
		// requests, failover), federated when partitioned. With -live
		// each replica is its own mutable delta index and writes
		// broadcast through the tier; a shared -ingest-dir would have
		// the replicas fighting over one WAL, so it is rejected.
		if c.IngestDir != "" {
			return nil, nil, fmt.Errorf("-ingest-dir is not supported with -replicas/-partitions (replicas would share one WAL); use -live for in-memory writes")
		}
		parts, r := c.Partitions, c.Replicas
		if parts < 1 {
			parts = 1
		}
		if r < 1 {
			r = 1
		}
		var fleet *replica.Fleet
		var err error
		svc, fleet, cleanup, err = demo.Corpus.ReplicatedService(parts, r,
			c.LiveIngest, nil, c.replicaOptions(), c.shardOptions()...)
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		c.Fleet = fleet
	} else if c.LiveIngest || c.IngestDir != "" {
		// Mutable live-ingest backend: the demo corpus becomes the base
		// snapshot, writes layer over it in a delta (WAL-durable when
		// -ingest-dir is set, in-memory otherwise).
		store, err := ingest.Open(demo.Corpus.Index, ingest.Options{Dir: c.IngestDir})
		if err != nil {
			return nil, nil, fmt.Errorf("opening live-ingest store: %w", err)
		}
		svc = ingest.NewLive(store, localOpts...)
		cleanup = func() { _ = store.Close() }
	} else {
		local, err := texservice.NewLocal(demo.Corpus.Index, localOpts...)
		if err != nil {
			return nil, nil, err
		}
		svc = local
	}

	eng := core.NewEngineWith(opts)
	if len(c.Tables) > 0 {
		for _, spec := range c.Tables {
			name, path, ok := strings.Cut(spec, "=")
			if !ok {
				cleanup()
				return nil, nil, fmt.Errorf("bad -table %q; want name=path.csv", spec)
			}
			tbl, err := relation.LoadCSVFile(strings.ToLower(name), path)
			if err != nil {
				cleanup()
				return nil, nil, err
			}
			if err := eng.RegisterTable(tbl); err != nil {
				cleanup()
				return nil, nil, err
			}
		}
	} else {
		for _, tbl := range demo.Catalog.Tables {
			if err := eng.RegisterTable(tbl); err != nil {
				cleanup()
				return nil, nil, err
			}
		}
	}
	if err := eng.RegisterTextSource("mercury", svc, demo.Corpus.Fields()...); err != nil {
		cleanup()
		return nil, nil, err
	}
	return eng, cleanup, nil
}
