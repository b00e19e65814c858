package lyra_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestSimulatorCoreIsOneGoroutine is the executable form of the rule in
// DESIGN.md §14: a run — simulated or on the prototype — is one goroutine.
// Concurrency lives in runner (across runs) and the locks in prof that serve
// it; none of the packages below — obs included, whose recorder takes no lock
// because a recorder belongs to one run — may start a goroutine,
// import sync, or name a channel type, send or receive (a buffered channel is
// a lock spelled differently), so nothing in a run depends on a goroutine
// schedule, nor import time, so nothing in it reads the wall clock
// (wall-clock profiling goes through prof).
func TestSimulatorCoreIsOneGoroutine(t *testing.T) {
	core := []string{
		"sim", "sched", "alloc", "place", "knapsack", "reclaim", "orchestrator", "arbiter",
		"cluster", "job", "inference", "fault", "predict", "trace", "metrics", "invariant",
		"testbed", "obs",
	}
	fset := token.NewFileSet()
	for _, pkg := range core {
		files, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("internal/%s: no Go files (err=%v)", pkg, err)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatalf("parse %s: %v", name, err)
			}
			for _, imp := range f.Imports {
				p := strings.Trim(imp.Path.Value, `"`)
				if p == "sync" || strings.HasPrefix(p, "sync/") {
					t.Errorf("%s: imports %q; a run is one goroutine (DESIGN.md §14)", fset.Position(imp.Pos()), p)
				}
				if p == "time" {
					t.Errorf("%s: imports %q; a run is on simulated time (DESIGN.md §14)", fset.Position(imp.Pos()), p)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				what := ""
				switch n := n.(type) {
				case *ast.GoStmt:
					what = "go statement"
				case *ast.ChanType:
					what = "channel type"
				case *ast.SendStmt:
					what = "channel send"
				case *ast.UnaryExpr:
					if n.Op == token.ARROW {
						what = "channel receive"
					}
				}
				if what != "" {
					t.Errorf("%s: %s; a run is one goroutine (DESIGN.md §14)", fset.Position(n.Pos()), what)
				}
				return true
			})
		}
	}
}
