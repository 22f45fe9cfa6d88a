package storage

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestOnlyTheWalkerFollowsNext is a static check over the package source:
// following a Page.Next link safely takes a range check, a type check, a
// loop bound and a copy of the link before Unpin, and the chain walker
// (chainWalk.step) does all four for every caller. So a non-test file may
// call .Next() only in page.go, where Next is defined, in the walker, and
// in the two reads below the pool: BufferPool.FlushChain and the free-list
// pop in DiskManager.AllocPage. `make chain-lint` runs it alone.
func TestOnlyTheWalkerFollowsNext(t *testing.T) {
	allowed := map[string]string{"chain.go": "step", "buffer.go": "FlushChain", "disk.go": "AllocPage"}
	paths, err := filepath.Glob("*.go")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no package source found: %v", err)
	}
	fset := token.NewFileSet()
	calls := 0
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") || path == "page.go" {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			fn, _ := decl.(*ast.FuncDecl)
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 0 {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "Next" {
					return true
				}
				calls++
				if fn == nil || allowed[path] != fn.Name.Name {
					t.Errorf("%s: .Next() outside the chain walker: follow a chain with walkChain", fset.Position(call.Pos()))
				}
				return true
			})
		}
	}
	if calls == 0 {
		t.Fatal("no .Next() call found at all: the check is not reading the package")
	}
}
