package query_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneIndexWalk is walk-lint, a static check over this package's
// source: each watched read has one owner file, and no other non-test file
// may call it. The walk (walk.go) is the one reader of an index: only it
// calls a snapshot's SnapshotOverlayOIDs or an index.Index's Scan,
// Summarize, Edge or Unkeyed — the reads whose scope, overlay rule,
// inexact-key rule and counters it owns (DESIGN §4 "The index walk"). The
// executor's per-object binding (bind.go) is the one caller of the
// catalog's ResolveAttr: a private resolver that binds on the target class
// alone would miss a subclass's redefinition. The planner (plan.go) is the
// one caller of Catalog.BindPath: a plan binds each of its paths over the
// scope once, and the index choice, the estimator, the covered decision
// and the read check all read those bindings.
// The package is type-checked, so a call is matched on its receiver's type
// and another type's Scan (core.Tx.Scan, say) passes. `make decode-lint`
// runs it.
func TestOneIndexWalk(t *testing.T) {
	type owned struct{ recv, file string }
	watched := map[string]owned{
		"SnapshotOverlayOIDs": {"*oodb/internal/core.Tx", "walk.go"},
		"Scan":                {"*oodb/internal/index.Index", "walk.go"},
		"Summarize":           {"*oodb/internal/index.Index", "walk.go"},
		"Edge":                {"*oodb/internal/index.Index", "walk.go"},
		"Unkeyed":             {"*oodb/internal/index.Index", "walk.go"},
		"ResolveAttr":         {"*oodb/internal/schema.Catalog", "bind.go"},
		"BindPath":            {"*oodb/internal/schema.Catalog", "plan.go"},
	}
	fset := token.NewFileSet()
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		file, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, file)
	}
	// The imports' types come from the compiler's export data, which
	// `go list -export` finds in (or adds to) the build cache.
	list, err := exec.Command("go", "list", "-deps", "-export", "-f", "{{.ImportPath}}={{.Export}}", ".").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	export := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(list)), "\n") {
		path, file, _ := strings.Cut(line, "=")
		export[path] = file
	}
	lookup := func(path string) (io.ReadCloser, error) { return os.Open(export[path]) }
	info := &types.Info{Selections: map[*ast.SelectorExpr]*types.Selection{}}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}
	if _, err := conf.Check("oodb/internal/query", fset, files, info); err != nil {
		t.Fatal(err)
	}
	inOwner := map[string]bool{}
	for sel, s := range info.Selections {
		w, ok := watched[sel.Sel.Name]
		if !ok || s.Kind() != types.MethodVal || s.Recv().String() != w.recv {
			continue
		}
		pos := fset.Position(sel.Pos())
		if pos.Filename == w.file {
			inOwner[sel.Sel.Name] = true
			continue
		}
		t.Errorf("%s: %s.%s outside %s, its one caller", pos, w.recv, sel.Sel.Name, w.file)
	}
	if len(inOwner) != len(watched) {
		t.Fatalf("the owners call %v of %d watched methods: the check is not reading the package", inOwner, len(watched))
	}
}
