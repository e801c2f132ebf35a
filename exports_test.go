package textjoin_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExports names the exported internal/ identifiers that may stay
// without a caller outside tests, each with the reason it stays. Every
// other exported top-level func, method, type, var or const in non-test
// internal/ code must be referenced by some non-test file under
// internal/, cmd/, examples/ or benchmark/.
var testOnlyExports = map[string]string{
	"SameRows":        "join: cross-package fixture, the multiset row comparison the equivalence suites of exec, shard and replica share",
	"NewLocalCluster": "shard: cross-package fixture, an in-process sharded federation for the join, exec and gateway suites",
	"RepeatedEngine":  "bench: cross-package fixture, the warm repeated-query engine of the root package's BenchmarkWarmQuery",
	"SetLatency":      "texservice: cross-package fixture, Faulty's injected latency, which the replica hedging suites slow a replica with",
	"IdleConns":       "texservice: cross-package fixture, Remote's pooled idle connections, which replica's hedge leak gate reads",
	"CostTSBatched":   "cost: the formula of TS(batched), pending ROADMAP item 9, which makes it a plan choice and waits on item 1's methodKey fix",
	"CostPTSLazy":     "cost: the formula of P+TS(lazy), pending ROADMAP item 9, which makes it a plan choice and waits on item 1's methodKey fix",
}

// TestNoTestOnlyExports keeps the non-test API free of names that only
// tests use. It parses every non-test .go file under internal/, cmd/,
// examples/ and benchmark/, collects the exported top-level declarations
// of internal/ and every identifier the files use, and fails, naming the
// file and line, for each declaration whose name no file uses outside
// its own declaration. It also fails on an allowlist entry whose name
// is no longer declared or has since gained a use.
//
// Matching is by name, not by type: a use of T.Close counts for every
// method called Close, so a test-only method that shares its name with
// a used one passes unseen. Comments and string literals are not
// identifiers and never count.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	decls := map[string][]token.Position{} // exported internal/ name → declaration sites
	declIdents := map[*ast.Ident]bool{}
	var files []*ast.File
	for _, root := range []string{"internal", "cmd", "examples", "benchmark"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files = append(files, f)
			if root == "internal" {
				for _, id := range topLevelNames(f) {
					if id.IsExported() {
						declIdents[id] = true
						decls[id.Name] = append(decls[id.Name], fset.Position(id.Pos()))
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(decls) == 0 {
		t.Fatal("no exported declarations found under internal/; run from the repository root")
	}

	used := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declIdents[id] {
				used[id.Name] = true
			}
			return true
		})
	}

	var unused []string
	for name, sites := range decls {
		if used[name] {
			continue
		}
		if _, ok := testOnlyExports[name]; ok {
			continue
		}
		for _, p := range sites {
			unused = append(unused, p.String()+": "+name)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but no non-test file uses it: use it, unexport it, move it into a _test.go file, or allowlist it with a reason", u)
	}

	for name := range testOnlyExports {
		switch {
		case decls[name] == nil:
			t.Errorf("allowlisted %s is no longer an exported internal/ declaration: drop it from testOnlyExports", name)
		case used[name]:
			t.Errorf("allowlisted %s now has a non-test use: drop it from testOnlyExports", name)
		}
	}
}

// topLevelNames returns the identifiers f declares at top level: funcs,
// methods, types, vars and consts.
func topLevelNames(f *ast.File) []*ast.Ident {
	var ids []*ast.Ident
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			ids = append(ids, d.Name)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					ids = append(ids, s.Name)
				case *ast.ValueSpec:
					ids = append(ids, s.Names...)
				}
			}
		}
	}
	return ids
}
