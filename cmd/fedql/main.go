// Command fedql parses, optimizes, explains and executes conjunctive
// queries over relational tables and an external text source — the
// end-to-end loose integration the paper builds.
//
// fedql is the single-query / interactive tool: it builds one engine,
// runs one query (or a REPL), and exits. To *serve* many concurrent
// clients over HTTP against one shared engine — with admission control,
// load shedding and live stats — use the queryd command instead; both
// binaries share the same engine flags (see internal/appcfg).
//
// Usage:
//
//	fedql -query "select student.name, mercury.docid from student, mercury
//	              where 'belief update' in mercury.title
//	              and student.name in mercury.author"
//
//	fedql -i                       # interactive: one query per line
//	fedql -table pts=patients.csv  # register CSV tables (repeatable)
//
// Flags select the optimizer mode (-mode traditional|prl|greedy), the
// corpus size (-docs), and optionally a remote text server (-remote
// host:port, e.g. one started with textserve) instead of the in-process
// backend. Without -table flags the demo university database is loaded.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"textjoin/internal/appcfg"
	"textjoin/internal/core"
	"textjoin/internal/exec"
	"textjoin/internal/obs"
	"textjoin/internal/relation"
	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
)

func main() {
	cfg := config{EngineConfig: appcfg.Defaults()}
	cfg.EngineConfig.RegisterFlags(flag.CommandLine)
	var (
		query       = flag.String("query", "", "query to run (or use -i)")
		interactive = flag.Bool("i", false, "interactive mode: read one query per line from stdin")
		explain     = flag.Bool("explain", true, "print the chosen plan")
		analyze     = flag.Bool("analyze", false, "EXPLAIN ANALYZE: print per-operator estimated vs. actual cost, and the span trace (spans returned by remote backends render inline with a remote=<addr> marker)")
		trace       = flag.Bool("trace", false, "print the query's span trace (implied by -analyze)")
		maxRows     = flag.Int("maxrows", 20, "result rows to print")
		ingestOps   = flag.String("ingest", "", `apply a write batch to the text source and exit: a JSON array of {"kind":"put"|"delete","ext":...,"fields":{...}} ops, or @file to read it from a file`)
		search      = flag.String("search", "", "run one raw Boolean search against the text source and print the matching external IDs (e.g. \"title: belief and update\")")
	)
	flag.Parse()
	if *query == "" && !*interactive && *ingestOps == "" && *search == "" {
		fmt.Fprintln(os.Stderr, "fedql: -query, -i, -ingest or -search is required (to serve queries over HTTP, use queryd)")
		flag.Usage()
		os.Exit(2)
	}
	cfg.explain = *explain
	cfg.analyze = *analyze
	cfg.trace = *trace || *analyze
	cfg.maxRows = *maxRows
	var err error
	switch {
	case *ingestOps != "":
		err = runIngest(os.Stdout, *ingestOps, cfg)
	case *search != "":
		err = runSearch(os.Stdout, *search, cfg)
	case *interactive:
		err = repl(os.Stdout, os.Stdin, cfg)
	default:
		err = runOnce(os.Stdout, *query, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedql:", err)
		os.Exit(1)
	}
}

// textService returns the engine's (single) registered text source stack.
func textService(eng *core.Engine) (string, texservice.Service, error) {
	var names []string
	for name := range eng.Catalog().Text {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return "", nil, fmt.Errorf("no text source registered")
	}
	return names[0], eng.TextService(names[0]), nil
}

// runIngest applies one write batch to the text source: the argument is a
// JSON array of ops, or @path naming a file holding one. The command
// prints the durable acknowledgement (WAL sequence, post-write version).
func runIngest(w io.Writer, arg string, cfg config) error {
	data := []byte(arg)
	if strings.HasPrefix(arg, "@") {
		var err error
		data, err = os.ReadFile(arg[1:])
		if err != nil {
			return err
		}
	}
	var ops []texservice.IngestOp
	if err := json.Unmarshal(data, &ops); err != nil {
		return fmt.Errorf("parsing -ingest ops: %w", err)
	}
	eng, cleanup, err := cfg.BuildEngine()
	if err != nil {
		return err
	}
	defer cleanup()
	name, svc, err := textService(eng)
	if err != nil {
		return err
	}
	res, err := svc.Ingest(context.Background(), ops)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "ingested %d ops into %s: seq %d, %d applied, index version %d\n",
		len(ops), name, res.Seq, res.Applied, res.Version)
	return nil
}

// runSearch issues one raw Boolean search and prints the hits' external
// IDs — the minimal freshness check (is this document visible yet?).
func runSearch(w io.Writer, query string, cfg config) error {
	eng, cleanup, err := cfg.BuildEngine()
	if err != nil {
		return err
	}
	defer cleanup()
	name, svc, err := textService(eng)
	if err != nil {
		return err
	}
	e, err := textidx.Parse(query, nil)
	if err != nil {
		return err
	}
	res, err := svc.Search(context.Background(), e, texservice.FormShort)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%d hits on %s\n", len(res.Hits), name)
	for _, h := range res.Hits {
		fmt.Fprintln(w, h.ExtID)
	}
	return nil
}

// config is the shared engine configuration plus fedql's output options.
type config struct {
	appcfg.EngineConfig
	explain bool
	analyze bool
	trace   bool
	maxRows int
}

// runOnce builds an engine and executes one query.
func runOnce(w io.Writer, query string, cfg config) error {
	eng, cleanup, err := cfg.BuildEngine()
	if err != nil {
		return err
	}
	defer cleanup()
	return execute(w, eng, query, cfg)
}

// repl reads queries line by line and executes each against one engine.
// Meta commands: \tables lists the catalog, \explain toggles plan
// printing, \quit exits.
func repl(w io.Writer, r io.Reader, cfg config) error {
	eng, cleanup, err := cfg.BuildEngine()
	if err != nil {
		return err
	}
	defer cleanup()
	fmt.Fprintln(w, `fedql: one query per line; \tables, \explain, \quit (or empty line / EOF)`)
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Fprint(w, "fedql> ")
		if !scanner.Scan() {
			fmt.Fprintln(w)
			return scanner.Err()
		}
		line := strings.TrimSpace(strings.TrimSuffix(scanner.Text(), ";"))
		switch {
		case line == "" || line == `\quit` || line == `\q`:
			return nil
		case line == `\tables`:
			printCatalog(w, eng)
			continue
		case line == `\explain`:
			cfg.explain = !cfg.explain
			fmt.Fprintf(w, "explain: %v\n", cfg.explain)
			continue
		case strings.HasPrefix(line, `\`):
			fmt.Fprintf(w, "unknown command %s\n", line)
			continue
		}
		if err := execute(w, eng, line, cfg); err != nil {
			fmt.Fprintln(w, "error:", err)
		}
	}
}

// printCatalog lists the registered tables and text sources.
func printCatalog(w io.Writer, eng *core.Engine) {
	cat := eng.Catalog()
	var names []string
	for name := range cat.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  table %s%s\n", name, cat.Tables[name].Schema)
	}
	names = names[:0]
	for name := range cat.Text {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  text source %s (fields: %s)\n",
			name, strings.Join(cat.Text[name].Fields, ", "))
	}
}

// execute runs one query against the engine and prints the outcome.
func execute(w io.Writer, eng *core.Engine, query string, cfg config) error {
	// -analyze collects per-operator actuals; -trace (implied by
	// -analyze) records the span tree. Both ride on the context, so a
	// plain run pays nothing for them.
	ctx := context.Background()
	var rec *obs.Recorder
	if cfg.trace {
		rec = obs.NewRecorder("fedql")
		ctx = obs.WithRecorder(ctx, rec)
	}
	if cfg.analyze {
		ctx = exec.WithAnalysis(ctx, exec.NewAnalysis())
	}
	prepared, err := eng.PrepareContext(ctx, query)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "classified:", prepared.Analyzed())
	if cfg.explain {
		fmt.Fprintf(w, "\nplan (mode=%s, estimated cost %.2fs):\n%s",
			cfg.Mode, prepared.EstCost(), prepared.Explain())
	}
	res, err := prepared.RunContext(ctx)
	if err != nil {
		return err
	}
	if cfg.analyze && res.Analyze != nil {
		fmt.Fprintf(w, "\nanalyze (est vs act, cost cumulative per subtree):\n")
		exec.FormatAnalyze(w, res.Analyze)
	}
	if rec != nil {
		rec.Root().End()
		fmt.Fprintf(w, "\ntrace %s:\n", rec.ID)
		obs.Dump(w, rec.Root())
	}
	hedged := ""
	if res.Usage.Hedges > 0 {
		hedged = fmt.Sprintf(", %d hedged", res.Usage.Hedges)
	}
	fmt.Fprintf(w, "\n%d rows in %s (optimize %s); text-service usage: %d searches (%d probes%s), %d postings, %d short + %d long docs, simulated cost %.2fs (critical path %.2fs)\n",
		res.Table.Cardinality(), res.ExecuteTime.Round(10e3), res.OptimizeTime.Round(10e3),
		res.Usage.Searches, res.Probes, hedged, res.Usage.Postings,
		res.Usage.ShortDocs, res.Usage.LongDocs, res.Usage.Cost, res.Usage.CritCost)
	if res.Partial {
		fmt.Fprintln(w, "partial answer: a text source lost part of its collection during the run, so rows may be missing")
	}
	fmt.Fprintln(w)
	printTable(w, res.Table, cfg.maxRows)
	return nil
}

func printTable(w io.Writer, t *relation.Table, maxRows int) {
	var header []string
	for _, c := range t.Schema.Cols {
		header = append(header, c.Name)
	}
	fmt.Fprintln(w, strings.Join(header, " | "))
	fmt.Fprintln(w, strings.Repeat("-", len(strings.Join(header, " | "))))
	for i, row := range t.Rows {
		if i >= maxRows {
			fmt.Fprintf(w, "... (%d more rows)\n", len(t.Rows)-maxRows)
			break
		}
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.Text()
		}
		fmt.Fprintln(w, strings.Join(parts, " | "))
	}
}
