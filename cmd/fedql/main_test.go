package main

import (
	"io"
	"regexp"
	"strconv"

	"os"
	"path/filepath"
	"strings"
	"testing"
	"textjoin/internal/appcfg"
	"time"

	"textjoin/internal/texservice"
	"textjoin/internal/workload"
)

func baseConfig() config {
	ec := appcfg.Defaults()
	ec.Docs = 400
	return config{EngineConfig: ec, explain: true, maxRows: 5}
}

func TestRunQueries(t *testing.T) {
	queries := []string{
		`select student.name, mercury.docid from student, mercury
		 where 'belief update' in mercury.title and student.name in mercury.author`,
		`select docid from project, mercury
		 where project.sponsor = 'NSF' and project.pname in mercury.title
		 and project.member in mercury.author`,
		`select student.name, faculty.fname from student, faculty
		 where student.advisor = faculty.fname and student.year > 4`,
	}
	for _, mode := range []string{"traditional", "prl", "greedy"} {
		cfg := baseConfig()
		cfg.Mode = mode
		for _, q := range queries {
			if err := runOnce(io.Discard, q, cfg); err != nil {
				t.Errorf("mode=%s query=%q: %v", mode, q, err)
			}
		}
	}
}

func TestRunErrors(t *testing.T) {
	cfg := baseConfig()
	cfg.Mode = "bogusmode"
	if err := runOnce(io.Discard, "select * from student", cfg); err == nil {
		t.Error("unknown mode accepted")
	}
	cfg = baseConfig()
	if err := runOnce(io.Discard, "not a query", cfg); err == nil {
		t.Error("bad query accepted")
	}
	cfg = baseConfig()
	cfg.Remote = "127.0.0.1:1"
	if err := runOnce(io.Discard, "select * from student", cfg); err == nil {
		t.Error("unreachable remote accepted")
	}
}

func TestCSVTables(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "patients.csv")
	csv := "name, diagnosis\nAdams, hypertension\nBaker, diabetes\n"
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig()
	cfg.Tables = appcfg.TableList{"patients=" + path}
	err := runOnce(io.Discard, `select patients.name, mercury.docid from patients, mercury
		where patients.diagnosis in mercury.abstract`, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Bad specs.
	cfg.Tables = appcfg.TableList{"nopath"}
	if err := runOnce(io.Discard, "select * from patients", cfg); err == nil {
		t.Error("bad -table spec accepted")
	}
	cfg.Tables = appcfg.TableList{"x=" + filepath.Join(dir, "missing.csv")}
	if err := runOnce(io.Discard, "select * from x", cfg); err == nil {
		t.Error("missing CSV accepted")
	}
}

func TestREPL(t *testing.T) {
	cfg := baseConfig()
	cfg.explain = false
	input := strings.NewReader(
		"select student.name from student, faculty where student.advisor = faculty.fname\n" +
			"this is not sql\n" + // errors are reported, loop continues
			"\n") // empty line quits
	var out strings.Builder
	if err := repl(&out, input, cfg); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "fedql>") {
		t.Errorf("no prompt in output: %q", s)
	}
	if !strings.Contains(s, "error:") {
		t.Errorf("bad query not reported: %q", s)
	}
	if !strings.Contains(s, "rows in") {
		t.Errorf("no query result in output: %q", s)
	}
}

func TestREPLMetaCommands(t *testing.T) {
	cfg := baseConfig()
	cfg.explain = false
	input := strings.NewReader("\\tables\n\\explain\n\\bogus\n\\quit\n")
	var out strings.Builder
	if err := repl(&out, input, cfg); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"table student", "text source mercury", "explain: true", "unknown command"} {
		if !strings.Contains(s, want) {
			t.Errorf("REPL output missing %q:\n%s", want, s)
		}
	}
}

// TestRemoteWithFaultTolerance runs a query end to end against a chaotic
// textserve-style server, exercising the -pool/-timeout/-retries path:
// injected connection drops must be absorbed by the client's retries.
func TestRemoteWithFaultTolerance(t *testing.T) {
	demo := workload.NewDemo(400, 1)
	local, err := texservice.NewLocal(demo.Corpus.Index,
		texservice.WithShortFields("title", "author", "year"))
	if err != nil {
		t.Fatal(err)
	}
	flaky := texservice.NewFaulty(local, texservice.FaultConfig{DropEvery: 4})
	srv := texservice.NewServer(flaky)
	srv.Logf = func(string, ...interface{}) {}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cfg := baseConfig()
	cfg.Remote = addr
	cfg.Pool = 4
	cfg.Timeout = 5 * time.Second
	cfg.Retries = 5
	q := `select student.name, mercury.docid from student, mercury
	      where 'belief update' in mercury.title and student.name in mercury.author`
	if err := runOnce(io.Discard, q, cfg); err != nil {
		t.Fatalf("query through chaotic remote: %v", err)
	}
	if flaky.Injected() == 0 {
		t.Fatal("no faults injected; test is vacuous")
	}
}

// TestBestEffortPrintsPartial: with -besteffort over a two-partition
// -remote list whose second server fails every search for good, the query
// still answers from the first partition, and fedql says the answer is
// partial. The same query over two healthy servers prints no notice.
func TestBestEffortPrintsPartial(t *testing.T) {
	demo := workload.NewDemo(400, 1)
	parts, err := demo.Corpus.Index.Partition(2)
	if err != nil {
		t.Fatal(err)
	}
	serve := func(svc texservice.Service) string {
		srv := texservice.NewServer(svc)
		srv.Logf = func(string, ...interface{}) {}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return addr
	}
	local := func(i int) *texservice.Local {
		svc, err := texservice.NewLocal(parts[i], texservice.WithShortFields("title", "author", "year"))
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	healthy := serve(local(1))
	broken := serve(texservice.NewFaulty(local(1), texservice.FaultConfig{ErrorEvery: 1, Permanent: true}))
	first := serve(local(0))

	q := `select student.name, mercury.docid from student, mercury
	      where 'belief update' in mercury.title and student.name in mercury.author`
	for _, c := range []struct {
		second  string
		partial bool
	}{{healthy, false}, {broken, true}} {
		cfg := baseConfig()
		cfg.Remote = first + "," + c.second
		cfg.BestEffort = true
		cfg.Timeout = 5 * time.Second
		var out strings.Builder
		if err := runOnce(&out, q, cfg); err != nil {
			t.Fatalf("best-effort query (second partition partial=%v): %v", c.partial, err)
		}
		if got := strings.Contains(out.String(), "partial answer"); got != c.partial {
			t.Errorf("second partition partial=%v: partial notice printed = %v in:\n%s", c.partial, got, out.String())
		}
	}
}

// TestAnalyzeOutput is the EXPLAIN ANALYZE acceptance check: -analyze
// must print, for every operator of the plan, the optimizer's estimate
// and execution's actual side by side; the query hits the text backend,
// so actual cost is nonzero, and on the deterministic demo workload the
// estimate tracks the actual within tolerance.
func TestAnalyzeOutput(t *testing.T) {
	cfg := baseConfig()
	cfg.analyze = true
	cfg.trace = true
	var out strings.Builder
	query := `select student.name, mercury.docid from student, mercury
	          where 'belief update' in mercury.title and student.name in mercury.author`
	if err := runOnce(&out, query, cfg); err != nil {
		t.Fatal(err)
	}
	text := out.String()

	// Extract the analyze section's node lines.
	_, rest, ok := strings.Cut(text, "analyze (est vs act")
	if !ok {
		t.Fatalf("no analyze section in output:\n%s", text)
	}
	_, rest, _ = strings.Cut(rest, "\n")
	var nodes []string
	for _, line := range strings.Split(rest, "\n") {
		if strings.TrimSpace(line) == "" {
			break
		}
		nodes = append(nodes, line)
	}
	if len(nodes) < 3 {
		t.Fatalf("analyze tree has %d operators, want >= 3 (project, text join, scan):\n%s", len(nodes), text)
	}
	lineRe := regexp.MustCompile(`est: card=\S+\s+cost=(\S+)\s+act: rows=\S+\s+cost=(\S+)\s+time=\S+`)
	for i, line := range nodes {
		m := lineRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("operator line %d lacks est/act columns: %q", i, line)
			continue
		}
		est, err1 := strconv.ParseFloat(m[1], 64)
		act, err2 := strconv.ParseFloat(m[2], 64)
		if err1 != nil || err2 != nil {
			t.Errorf("operator line %d: unparsable costs %q %q", i, m[1], m[2])
			continue
		}
		if i == 0 { // root: cumulative over the whole text-hitting plan
			if act <= 0 {
				t.Errorf("root actual cost = %g, want > 0 for a text-hitting query", act)
			}
			if diff := est - act; diff < -0.5*act || diff > 0.5*act {
				t.Errorf("root estimate %g vs actual %g: outside 50%% tolerance", est, act)
			}
		}
	}
	// The span trace rides along.
	if !strings.Contains(text, "trace t-") || !strings.Contains(text, "local.search") {
		t.Errorf("span trace missing from -analyze output:\n%s", text)
	}
}
