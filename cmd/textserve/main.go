// Command textserve runs a standalone Boolean text retrieval server over
// TCP — the external text source of the loose integration. By default it
// serves a generated bibliographic corpus; with -load it indexes documents
// from a JSON file (an array of {"ext": ..., "fields": {...}} objects).
//
// When a tracing client asks, each reply piggybacks the server's own
// span subtree for that operation, so client-side traces (fedql
// -analyze, queryd /trace/{id}) show backend-internal work attributed to
// this process.
//
// Usage:
//
//	textserve -addr 127.0.0.1:7070 -docs 5000
//	fedql -remote 127.0.0.1:7070 -query "..."
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"textjoin/internal/ingest"
	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
	"textjoin/internal/workload"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7070", "listen address")
		docs      = flag.Int("docs", 2000, "generated corpus size (ignored with -load/-snapshot)")
		seed      = flag.Int64("seed", 1, "generation seed")
		load      = flag.String("load", "", "JSON file of documents to serve instead of a generated corpus")
		snapshot  = flag.String("snapshot", "", "index snapshot file to serve (see -write-snapshot)")
		writeTo   = flag.String("write-snapshot", "", "write the index snapshot to this file and exit")
		short     = flag.String("short", "title,author,year", "comma-separated short-form fields")
		maxTerms  = flag.Int("maxterms", texservice.DefaultMaxTerms, "maximum search terms per query (the paper's M)")
		chaos     = flag.String("chaos", "", `fault injection spec, e.g. "rate=0.1,drop=50,latency=20ms" (keys: every, rate, drop, hang, latency, doclat, brownout, seed, permanent)`)
		shardArg  = flag.String("shard", "", `serve one document partition, as "k/n" (e.g. -shard 0/3); composes with -load/-snapshot/-write-snapshot`)
		logReqs   = flag.Bool("log-requests", false, "log every request with its op, client trace ID and duration")
		ingestDir = flag.String("ingest-dir", "", "serve a mutable live-ingest index durably backed by this directory (WAL + snapshots); accepts ingest ops over the wire and replays the log on start")
	)
	flag.Parse()
	if err := run(*addr, *docs, *seed, *load, *snapshot, *writeTo, *short, *maxTerms, *chaos, *shardArg, *logReqs, *ingestDir); err != nil {
		fmt.Fprintln(os.Stderr, "textserve:", err)
		os.Exit(1)
	}
}

// parseShard parses the -shard "k/n" syntax.
func parseShard(s string) (k, n int, err error) {
	if _, err := fmt.Sscanf(s, "%d/%d", &k, &n); err != nil {
		return 0, 0, fmt.Errorf("bad -shard %q; want k/n (e.g. 0/3)", s)
	}
	if n < 1 || k < 0 || k >= n {
		return 0, 0, fmt.Errorf("bad -shard %q: need 0 ≤ k < n", s)
	}
	return k, n, nil
}

type jsonDoc struct {
	Ext    string            `json:"ext"`
	Fields map[string]string `json:"fields"`
}

func run(addr string, docs int, seed int64, load, snapshot, writeTo, short string, maxTerms int, chaos, shardArg string, logReqs bool, ingestDir string) error {
	var ix *textidx.Index
	switch {
	case snapshot != "":
		loaded, err := textidx.LoadFile(snapshot)
		if err != nil {
			return err
		}
		ix = loaded
	case load != "":
		data, err := os.ReadFile(load)
		if err != nil {
			return err
		}
		var jdocs []jsonDoc
		if err := json.Unmarshal(data, &jdocs); err != nil {
			return fmt.Errorf("parsing %s: %w", load, err)
		}
		ix = textidx.NewIndex()
		for _, d := range jdocs {
			ix.MustAdd(textidx.Document{ExtID: d.Ext, Fields: d.Fields})
		}
		ix.Freeze()
	default:
		ix = workload.NewCorpus(workload.CorpusConfig{Docs: docs, Seed: seed}).Index
	}
	shardInfo := ""
	shardK, shardN := 0, 1
	if shardArg != "" {
		k, n, err := parseShard(shardArg)
		if err != nil {
			return err
		}
		parts, err := ix.Partition(n)
		if err != nil {
			return err
		}
		ix = parts[k]
		shardK, shardN = k, n
		shardInfo = fmt.Sprintf(" [shard %d/%d]", k, n)
	}
	if writeTo != "" {
		if err := ix.SaveFile(writeTo); err != nil {
			return err
		}
		fmt.Printf("textserve: wrote snapshot of %d documents%s to %s\n", ix.NumDocs(), shardInfo, writeTo)
		return nil
	}

	var svc texservice.Service
	var storeClose func() error
	opts := []texservice.LocalOption{
		texservice.WithShortFields(strings.Split(short, ",")...),
		texservice.WithMaxTerms(maxTerms),
	}
	if ingestDir != "" {
		store, err := ingest.Open(ix, ingest.Options{
			Dir: ingestDir, ShardIndex: shardK, ShardCount: shardN,
		})
		if err != nil {
			return err
		}
		storeClose = store.Close
		svc = ingest.NewLive(store, opts...)
		fmt.Printf("textserve: live ingest enabled (dir %s, %d records replayed, %d torn-tail bytes truncated)\n",
			ingestDir, store.Replayed(), store.TornBytes())
	} else {
		local, err := texservice.NewLocal(ix, opts...)
		if err != nil {
			return err
		}
		svc = local
	}
	if chaos != "" {
		cfg, err := texservice.ParseFaultConfig(chaos)
		if err != nil {
			return err
		}
		svc = texservice.NewFaulty(svc, cfg)
	}
	srv := texservice.NewServer(svc)
	srv.LogRequests = logReqs
	bound, err := srv.Listen(addr)
	if err != nil {
		return err
	}
	fmt.Printf("textserve: serving %d documents%s on %s (short form: %s, M=%d)\n",
		ix.NumDocs(), shardInfo, bound, short, maxTerms)
	if chaos != "" {
		fmt.Printf("textserve: chaos mode active (%s)\n", chaos)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("\ntextserve: shutting down")
	err = srv.Close()
	if storeClose != nil {
		if cerr := storeClose(); err == nil {
			err = cerr
		}
	}
	return err
}
