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
// DESIGN.md §14: the simulator core runs on one goroutine. Concurrency lives
// in runner (across runs), testbed (the live substrate) and the locks in obs
// and prof that serve them; none of the packages below may start a goroutine
// or import sync, so nothing in a simulated run depends on a goroutine
// schedule.
func TestSimulatorCoreIsOneGoroutine(t *testing.T) {
	core := []string{
		"sim", "sched", "alloc", "place", "knapsack", "reclaim", "orchestrator", "arbiter",
		"cluster", "job", "inference", "fault", "predict", "trace", "metrics", "invariant",
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
				if p := strings.Trim(imp.Path.Value, `"`); p == "sync" || strings.HasPrefix(p, "sync/") {
					t.Errorf("%s: imports %q; the simulator core is one goroutine (DESIGN.md §14)", fset.Position(imp.Pos()), p)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					t.Errorf("%s: go statement; the simulator core is one goroutine (DESIGN.md §14)", fset.Position(g.Pos()))
				}
				return true
			})
		}
	}
}
