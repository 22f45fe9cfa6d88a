package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestOnlyTheEngineDecodes is a static check over the module source: the
// engine alone decodes records and calls the lock manager.
//
// A stored object is read above the engine through FetchObject or
// ScanObjects, which turn a record that does not decode into
// model.ErrCorrupt, so no layer can skip one by hand. A non-test file
// outside internal/core, internal/storage and internal/model may not name
// ScanImages or DecodeObject; internal/fault (the crash harness, which
// counts the records recovery left) may name ScanImages.
//
// A lock is taken above the engine through core.Tx (Fetch,
// FetchForUpdate, the writes, LockClassScan), which rolls a deadlock victim
// back before it returns the error. No non-test file outside internal/core
// and internal/txn may name the lock manager's Lock* calls.
//
// The perfbench module is not walked. `make decode-lint` runs it beside
// TestPinnedReadsStayInTheEngine.
func TestOnlyTheEngineDecodes(t *testing.T) {
	engine := []string{"internal/core/", "internal/txn/"}
	allowed := map[string][]string{
		"ScanImages":        {"internal/core/", "internal/storage/", "internal/model/", "internal/fault/"},
		"DecodeObject":      {"internal/core/", "internal/storage/", "internal/model/"},
		"LockInstanceRead":  engine,
		"LockInstanceWrite": engine,
		"LockClassRead":     engine,
		"LockClassWrite":    engine,
		"LockHierarchyRead": engine,
	}
	uses := 0
	files := walkSource(t, func(rel string, fset *token.FileSet, file *ast.File) {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			dirs, watched := allowed[sel.Sel.Name]
			if !watched {
				return true
			}
			uses++
			for _, dir := range dirs {
				if strings.HasPrefix(rel, dir) {
					return true
				}
			}
			t.Errorf("%s: %s outside the engine: read objects with core.DB.FetchObject or ScanObjects, lock them through core.Tx",
				fset.Position(sel.Pos()), sel.Sel.Name)
			return true
		})
	})
	if files < 50 || uses == 0 {
		t.Fatalf("walked %d files and found %d uses: the check is not reading the module", files, uses)
	}
}

// TestPinnedReadsStayInTheEngine is decode-lint's second static check: the
// two ways to hold bytes nobody owns stay in the packages built around
// them.
//
// storage.Store.View hands its callback a slice of a pinned page, valid
// only while the callback runs; the engine's two point reads decode inside
// it. No non-test file outside internal/storage and internal/core may name
// View.
//
// model.Value keeps its payload behind an unsafe.Pointer, and the rule that
// makes that sound (a payload is an owned, immutable copy) is kept in
// internal/model. No other non-test file may import unsafe, except
// internal/obs/obs.go, whose striped counters hash a stack address to a
// cell.
func TestPinnedReadsStayInTheEngine(t *testing.T) {
	unsafeOK := func(rel string) bool {
		return strings.HasPrefix(rel, "internal/model/") || rel == "internal/obs/obs.go"
	}
	imports, views := 0, 0
	files := walkSource(t, func(rel string, fset *token.FileSet, file *ast.File) {
		for _, imp := range file.Imports {
			if imp.Path.Value != `"unsafe"` {
				continue
			}
			imports++
			if !unsafeOK(rel) {
				t.Errorf("%s: imports unsafe outside internal/model", fset.Position(imp.Pos()))
			}
		}
		inEngine := strings.HasPrefix(rel, "internal/storage/") || strings.HasPrefix(rel, "internal/core/")
		ast.Inspect(file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "View" {
				views++
				if !inEngine {
					t.Errorf("%s: Store.View outside the engine: its payload aliases a pinned page; read objects with core.DB.FetchObject",
						fset.Position(sel.Pos()))
				}
			}
			return true
		})
	})
	if files < 50 || imports == 0 || views == 0 {
		t.Fatalf("walked %d files, found %d unsafe imports and %d View calls: the check is not reading the module", files, imports, views)
	}
}

// walkSource parses every non-test Go file of the module, perfbench and
// testdata excluded, and calls visit with its slash-separated path from
// the module root. It returns the number of files parsed.
func walkSource(t *testing.T, visit func(rel string, fset *token.FileSet, file *ast.File)) int {
	t.Helper()
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel == "perfbench" || rel == "testdata" || strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		visit(rel, fset, file)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
