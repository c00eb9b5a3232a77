package experiments

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// pacingAllowed names the functions of this package that may wait on the
// wall clock themselves, each with its reason. Every other function leaves
// arrival timing to workload.Replay, so a virtual clock has one place to
// plug in.
var pacingAllowed = map[string]string{
	"driftWait":        "polls the adapt controller until a lifecycle step happens",
	"driftFreshRun":    "warms the fresh-fit stack past its prefill-heavy start before the reference window",
	"Overload":         "polls the breaker's health after the soak to count recovery steps",
	"runServingStatic": "the static-wave baseline admits arrivals into a bare Session between waves, so it has no submit hook for Replay to call",
}

// pacingCalls are the time functions that wait or schedule a wake-up.
var pacingCalls = map[string]bool{"Sleep": true, "After": true, "AfterFunc": true, "NewTimer": true, "Tick": true}

// TestNoPacingOutsideReplay parses the package's non-test files and fails on
// any function outside pacingAllowed that uses a pacingCalls function, and
// on any allow-list entry that no longer needs its place.
func TestNoPacingOutsideReplay(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	used := map[string][]string{} // function -> "file:line time.X" uses
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		timePkg := ""
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "time" {
				timePkg = "time"
				if imp.Name != nil {
					timePkg = imp.Name.Name
				}
			}
		}
		if timePkg == "" {
			continue
		}
		for _, decl := range f.Decls {
			fn := "package-level declaration"
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fn = fd.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || !pacingCalls[sel.Sel.Name] {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == timePkg {
					used[fn] = append(used[fn], fmt.Sprintf("%s time.%s", fset.Position(sel.Pos()), sel.Sel.Name))
				}
				return true
			})
		}
	}
	var fns []string
	for fn := range used {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	for _, fn := range fns {
		if _, ok := pacingAllowed[fn]; !ok {
			t.Errorf("%s paces on the wall clock outside workload.Replay: %s", fn, strings.Join(used[fn], ", "))
		}
	}
	for fn := range pacingAllowed {
		if used[fn] == nil {
			t.Errorf("allow-list entry %s no longer waits on the clock; remove it", fn)
		}
	}
}
