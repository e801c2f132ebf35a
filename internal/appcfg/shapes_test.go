package appcfg

import (
	"fmt"
	"net"
	"slices"
	"testing"

	"textjoin/internal/core"
	"textjoin/internal/ingest"
	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
	"textjoin/internal/workload"
)

// demoQueries are joins over the demo tables that return rows at every
// corpus size the tests use.
var demoQueries = []string{
	`select student.name, mercury.docid from student, mercury
	 where student.year > 2 and student.name in mercury.author`,
	`select docid from project, mercury
	 where project.pname in mercury.title and project.member in mercury.author`,
}

// resultRows renders a result's rows as text.
func resultRows(res *core.Result) [][]string {
	out := make([][]string, len(res.Table.Rows))
	for i, row := range res.Table.Rows {
		for _, v := range row {
			out[i] = append(out[i], v.Text())
		}
	}
	return out
}

// TestBuildEngineShapes pins the text stack BuildEngine composes for every
// backend the binaries can ask for: the concrete type registered as
// "mercury", the routing fleet (absent, or one Set per partition), and
// answers equal to the plain in-process engine's. Live stacks must return
// one put exactly once, and a partitioned live stack must keep it on its
// owner partition only.
func TestBuildEngineShapes(t *testing.T) {
	const docs, seed = 400, 3
	base := Defaults()
	base.Docs, base.Seed = docs, seed

	plain, cleanupPlain, err := base.BuildEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanupPlain()
	want := make([][]string, len(demoQueries))
	for i, q := range demoQueries {
		res, err := plain.QueryContext(bg, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Table.Rows) == 0 {
			t.Fatalf("query %d has no rows; the comparison is vacuous", i)
		}
		want[i] = sortedRows(resultRows(res))
	}

	// TCP servers for the remote cases: two over the whole corpus, and
	// one per half of a two-way partition.
	demo := workload.NewDemo(docs, seed)
	halves, err := demo.Corpus.Index.Partition(2)
	if err != nil {
		t.Fatal(err)
	}
	server := func(ix *textidx.Index) string {
		svc, err := texservice.NewLocal(ix, texservice.WithShortFields("title", "author", "year"))
		if err != nil {
			t.Fatal(err)
		}
		_, addr := serve(t, svc)
		return addr
	}
	whole1, whole2 := server(demo.Corpus.Index), server(demo.Corpus.Index)
	half0, half1 := server(halves[0]), server(halves[1])

	cases := []struct {
		name  string
		set   func(c *EngineConfig)
		typ   string
		fleet int // Sets in the routing fleet; 0 = no fleet
		live  bool
	}{
		{"local", func(c *EngineConfig) {}, "*texservice.Local", 0, false},
		{"live", func(c *EngineConfig) { c.LiveIngest = true }, "*ingest.Live", 0, true},
		{"live ingest-dir", func(c *EngineConfig) { c.LiveIngest, c.IngestDir = true, t.TempDir() }, "*ingest.Live", 0, true},
		{"2x1", func(c *EngineConfig) { c.Partitions = 2 }, "*shard.Sharded", 2, false},
		{"1x2", func(c *EngineConfig) { c.Replicas = 2 }, "*replica.Set", 1, false},
		{"2x2", func(c *EngineConfig) { c.Partitions, c.Replicas = 2, 2 }, "*shard.Sharded", 2, false},
		{"2x2 live", func(c *EngineConfig) { c.Partitions, c.Replicas, c.LiveIngest = 2, 2, true }, "*shard.Sharded", 2, true},
		{"remote a", func(c *EngineConfig) { c.Remote = whole1 }, "*texservice.Remote", 0, false},
		{"remote a retries 3", func(c *EngineConfig) { c.Remote, c.Retries = whole1, 3 }, "*texservice.Retrying", 0, false},
		{"remote a,b", func(c *EngineConfig) { c.Remote = half0 + "," + half1 }, "*shard.Sharded", 0, false},
		{"remote a|b", func(c *EngineConfig) { c.Remote = whole1 + "|" + whole2 }, "*replica.Set", 1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.set(&cfg)
			eng, cleanup, err := cfg.BuildEngine()
			if err != nil {
				t.Fatal(err)
			}
			defer cleanup()
			svc := eng.TextService("mercury")
			if got := fmt.Sprintf("%T", svc); got != tc.typ {
				t.Errorf("registered %s, want %s", got, tc.typ)
			}
			switch {
			case tc.fleet == 0 && cfg.Fleet != nil:
				t.Errorf("fleet of %d Sets, want none", len(cfg.Fleet.Sets()))
			case tc.fleet > 0 && (cfg.Fleet == nil || len(cfg.Fleet.Sets()) != tc.fleet):
				t.Errorf("fleet %v, want %d Sets", cfg.Fleet, tc.fleet)
			}
			for i, q := range demoQueries {
				res, err := eng.QueryContext(bg, q)
				if err != nil {
					t.Fatal(err)
				}
				if got := sortedRows(resultRows(res)); !slices.Equal(got, want[i]) {
					t.Errorf("query %d: %d rows, want the local engine's %d", i, len(got), len(want[i]))
				}
			}
			if tc.live {
				checkLivePut(t, eng, &cfg, demo.Corpus.Authors[10])
			}
		})
	}

	t.Run("refusals", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		down := ln.Addr().String()
		ln.Close()
		refusals := []struct {
			set  func(c *EngineConfig)
			want string
		}{
			{func(c *EngineConfig) { c.IngestDir, c.Replicas = t.TempDir(), 2 },
				"-ingest-dir is not supported with -replicas/-partitions (replicas would share one WAL); use -live for in-memory writes"},
			{func(c *EngineConfig) { c.Remote = whole1 + ",," + whole2 },
				fmt.Sprintf("empty endpoint in -remote %q", whole1+",,"+whole2)},
			{func(c *EngineConfig) { c.Remote = whole1 + "|" },
				fmt.Sprintf("empty endpoint in -remote %q", whole1+"|")},
			{func(c *EngineConfig) { c.Remote = whole1 + "," + down + "|" + down },
				fmt.Sprintf("partition 1 of -remote %q: no reachable replicas", whole1+","+down+"|"+down)},
			{func(c *EngineConfig) { c.Tables = TableList{"nopath"} },
				`bad -table "nopath"; want name=path.csv`},
		}
		for _, r := range refusals {
			cfg := base
			r.set(&cfg)
			eng, cleanup, err := cfg.BuildEngine()
			if err == nil {
				cleanup()
				t.Errorf("built %T, want refusal %q", eng.TextService("mercury"), r.want)
				continue
			}
			if err.Error() != r.want {
				t.Errorf("error %q, want %q", err, r.want)
			}
		}
	})
}

// checkLivePut writes one document through the registered service and
// checks that the next query returns it exactly once and, on a
// partitioned stack, that only the owner partition holds it.
func checkLivePut(t *testing.T, eng *core.Engine, cfg *EngineConfig, author string) {
	t.Helper()
	const ext = "SHAPE-1"
	q := "select docid from student, mercury where 'zebrafish' in mercury.title and student.name in mercury.author"
	count := func() int {
		res, err := eng.QueryContext(bg, q)
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Table.Rows)
	}
	if n := count(); n != 0 {
		t.Fatalf("%d rows before the put, want 0", n)
	}
	op := texservice.IngestOp{Kind: texservice.IngestPut, ExtID: ext,
		Fields: map[string]string{"title": "zebrafish study", "author": author, "year": "2026"}}
	if _, err := eng.TextService("mercury").Ingest(bg, []texservice.IngestOp{op}); err != nil {
		t.Fatal(err)
	}
	if n := count(); n != 1 {
		t.Errorf("%d rows after one put, want 1", n)
	}
	if cfg.Fleet == nil || len(cfg.Fleet.Sets()) < 2 {
		return
	}
	sets := cfg.Fleet.Sets()
	owner := ingest.OwnerShard(ext, len(sets))
	for p, set := range sets {
		res, err := set.Search(bg, textidx.Term{Field: "title", Word: "zebrafish"}, texservice.FormShort)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if p == owner {
			want = 1
		}
		if len(res.Hits) != want {
			t.Errorf("partition %d holds %d copies, want %d (owner is %d)", p, len(res.Hits), want, owner)
		}
	}
}
