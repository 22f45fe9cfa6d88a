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
// The perfbench module is not walked. `make decode-lint` runs it alone.
func TestOnlyTheEngineDecodes(t *testing.T) {
	root := filepath.Join("..", "..")
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
	fset := token.NewFileSet()
	files, uses := 0, 0
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 || uses == 0 {
		t.Fatalf("walked %d files and found %d uses: the check is not reading the module", files, uses)
	}
}
