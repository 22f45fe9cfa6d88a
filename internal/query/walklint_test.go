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
// source: the walk (walk.go) is the one reader of an index. No other
// non-test file may call a snapshot's SnapshotOverlayOIDs or an
// index.Index's Scan, Summarize, Edge or Unkeyed — the reads whose scope,
// overlay rule, inexact-key rule and counters the walk owns (DESIGN §4
// "The index walk"). The package is type-checked, so a call is matched on
// its receiver's type and another type's Scan (core.Tx.Scan, say) passes.
// `make decode-lint` runs it.
func TestOneIndexWalk(t *testing.T) {
	watched := map[string]string{
		"SnapshotOverlayOIDs": "*oodb/internal/core.Tx",
		"Scan":                "*oodb/internal/index.Index",
		"Summarize":           "*oodb/internal/index.Index",
		"Edge":                "*oodb/internal/index.Index",
		"Unkeyed":             "*oodb/internal/index.Index",
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
	inWalk := map[string]bool{}
	for sel, s := range info.Selections {
		recv, ok := watched[sel.Sel.Name]
		if !ok || s.Kind() != types.MethodVal || s.Recv().String() != recv {
			continue
		}
		pos := fset.Position(sel.Pos())
		if pos.Filename == "walk.go" {
			inWalk[sel.Sel.Name] = true
			continue
		}
		t.Errorf("%s: %s.%s outside walk.go: read the index through the walk", pos, recv, sel.Sel.Name)
	}
	if len(inWalk) != len(watched) {
		t.Fatalf("walk.go calls %v of %d watched reads: the check is not reading the package", inWalk, len(watched))
	}
}
