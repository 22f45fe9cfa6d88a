// Package relational implements a compact relational engine used as the
// comparison baseline throughout the benchmarks: the paper repeatedly
// contrasts object-oriented facilities with their relational counterparts
// — navigation via object identifiers vs. joins (§3.3 concern 2), one
// index per relation vs. class-hierarchy indexes (§3.2), Wisconsin-style
// selections and joins vs. object operations (§5.6).
//
// The engine is deliberately conventional: relations of typed columns,
// tuple-at-a-time iteration, per-column B+tree indexes, selection with
// index or scan access paths, nested-loop and hash equijoins. It shares
// the value model (model.Value, model.Key) with the object engine so the
// comparisons measure representation and access-path differences, not
// codec differences.
package relational

import (
	"errors"
	"fmt"
	"sort"

	"oodb/internal/index"
	"oodb/internal/model"
)

// Errors of the relational engine.
var (
	ErrNoRelation = errors.New("relational: no such relation")
	ErrNoColumn   = errors.New("relational: no such column")
	ErrArity      = errors.New("relational: wrong tuple arity")
)

// Relation is a named table of tuples.
type Relation struct {
	Name string
	Cols []string

	colIdx  map[string]int
	rows    [][]model.Value // nil row = deleted
	live    int
	indexes map[string]*index.Tree // column -> index
}

// DB is a collection of relations.
type DB struct {
	relations map[string]*Relation
}

// NewDB returns an empty relational database.
func NewDB() *DB { return &DB{relations: make(map[string]*Relation)} }

// Create defines a relation with the given column names.
func (db *DB) Create(name string, cols ...string) (*Relation, error) {
	if _, dup := db.relations[name]; dup {
		return nil, fmt.Errorf("relational: relation %q already exists", name)
	}
	r := &Relation{
		Name:    name,
		Cols:    append([]string(nil), cols...),
		colIdx:  make(map[string]int, len(cols)),
		indexes: make(map[string]*index.Tree),
	}
	for i, c := range cols {
		if _, dup := r.colIdx[c]; dup {
			return nil, fmt.Errorf("relational: duplicate column %q", c)
		}
		r.colIdx[c] = i
	}
	db.relations[name] = r
	return r, nil
}

// Relation returns the named relation.
func (db *DB) Relation(name string) (*Relation, error) {
	r, ok := db.relations[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoRelation, name)
	}
	return r, nil
}

// rowOID packs a row number into the OID space the shared B+tree stores.
func rowOID(row int) model.OID { return model.MakeOID(1, uint64(row)+1) }
func oidRow(oid model.OID) int { return int(oid.Seq()) - 1 }

// Insert appends a tuple and returns its row id.
func (r *Relation) Insert(vals ...model.Value) (int, error) {
	if len(vals) != len(r.Cols) {
		return 0, fmt.Errorf("%w: got %d, want %d", ErrArity, len(vals), len(r.Cols))
	}
	row := len(r.rows)
	tuple := append([]model.Value(nil), vals...)
	r.rows = append(r.rows, tuple)
	r.live++
	for col, tree := range r.indexes {
		tree.Insert(model.Key(tuple[r.colIdx[col]]), rowOID(row))
	}
	return row, nil
}

// Update overwrites one column of a row.
func (r *Relation) Update(row int, col string, v model.Value) error {
	ci, ok := r.colIdx[col]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoColumn, col)
	}
	if row < 0 || row >= len(r.rows) || r.rows[row] == nil {
		return fmt.Errorf("relational: no row %d", row)
	}
	if tree, indexed := r.indexes[col]; indexed {
		tree.Delete(model.Key(r.rows[row][ci]), rowOID(row))
		tree.Insert(model.Key(v), rowOID(row))
	}
	r.rows[row][ci] = v
	return nil
}

// Delete removes a row.
func (r *Relation) Delete(row int) error {
	if row < 0 || row >= len(r.rows) || r.rows[row] == nil {
		return fmt.Errorf("relational: no row %d", row)
	}
	for col, tree := range r.indexes {
		tree.Delete(model.Key(r.rows[row][r.colIdx[col]]), rowOID(row))
	}
	r.rows[row] = nil
	r.live--
	return nil
}

// Get returns the tuple at row.
func (r *Relation) Get(row int) ([]model.Value, error) {
	if row < 0 || row >= len(r.rows) || r.rows[row] == nil {
		return nil, fmt.Errorf("relational: no row %d", row)
	}
	return r.rows[row], nil
}

// Len returns the number of live tuples.
func (r *Relation) Len() int { return r.live }

// Col returns the value of a named column in a tuple.
func (r *Relation) Col(tuple []model.Value, col string) (model.Value, error) {
	ci, ok := r.colIdx[col]
	if !ok {
		return model.Null, fmt.Errorf("%w: %q", ErrNoColumn, col)
	}
	return tuple[ci], nil
}

// CreateIndex builds a B+tree index on a column.
func (r *Relation) CreateIndex(col string) error {
	ci, ok := r.colIdx[col]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoColumn, col)
	}
	if _, dup := r.indexes[col]; dup {
		return fmt.Errorf("relational: index on %s.%s already exists", r.Name, col)
	}
	tree := index.NewTree()
	for row, tuple := range r.rows {
		if tuple != nil {
			tree.Insert(model.Key(tuple[ci]), rowOID(row))
		}
	}
	r.indexes[col] = tree
	return nil
}

// Scan calls fn with every live tuple.
func (r *Relation) Scan(fn func(row int, tuple []model.Value) bool) {
	for row, tuple := range r.rows {
		if tuple == nil {
			continue
		}
		if !fn(row, tuple) {
			return
		}
	}
}

// SelectEq returns the rows where col = v, via index if available.
func (r *Relation) SelectEq(col string, v model.Value) ([]int, error) {
	ci, ok := r.colIdx[col]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoColumn, col)
	}
	if tree, ok := r.indexes[col]; ok {
		posts := tree.Search(model.Key(v))
		out := make([]int, len(posts))
		for i, oid := range posts {
			out[i] = oidRow(oid)
		}
		return out, nil
	}
	var out []int
	for row, tuple := range r.rows {
		if tuple != nil && model.Equal(tuple[ci], v) {
			out = append(out, row)
		}
	}
	return out, nil
}

// SelectRange returns the rows with lo <= col (<=|<) hi; null bounds are
// open. Uses an index when available.
func (r *Relation) SelectRange(col string, lo, hi model.Value, hiInc bool) ([]int, error) {
	ci, ok := r.colIdx[col]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoColumn, col)
	}
	if tree, ok := r.indexes[col]; ok {
		var lok, hik []byte
		if !lo.IsNull() {
			lok = model.Key(lo)
		}
		if !hi.IsNull() {
			hik = model.Key(hi)
		}
		var out []int
		tree.Range(lok, hik, true, hiInc, func(_ []byte, posts []model.OID) bool {
			for _, oid := range posts {
				out = append(out, oidRow(oid))
			}
			return true
		})
		return out, nil
	}
	var out []int
	for row, tuple := range r.rows {
		if tuple == nil {
			continue
		}
		v := tuple[ci]
		if v.IsNull() {
			continue
		}
		if !lo.IsNull() && model.Compare(v, lo) < 0 {
			continue
		}
		if !hi.IsNull() {
			c := model.Compare(v, hi)
			if c > 0 || (c == 0 && !hiInc) {
				continue
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// JoinRow is one joined output tuple: the row ids on both sides.
type JoinRow struct {
	Left, Right int
}

// HashJoin equijoins l.lcol = r.rcol with a build-probe hash join (build
// side = right).
func HashJoin(l, r *Relation, lcol, rcol string) ([]JoinRow, error) {
	li, ok := l.colIdx[lcol]
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoColumn, l.Name, lcol)
	}
	ri, ok := r.colIdx[rcol]
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoColumn, r.Name, rcol)
	}
	build := make(map[string][]int, r.live)
	for row, tuple := range r.rows {
		if tuple == nil || tuple[ri].IsNull() {
			continue
		}
		k := string(model.Key(tuple[ri]))
		build[k] = append(build[k], row)
	}
	var out []JoinRow
	for lrow, tuple := range l.rows {
		if tuple == nil || tuple[li].IsNull() {
			continue
		}
		for _, rrow := range build[string(model.Key(tuple[li]))] {
			out = append(out, JoinRow{Left: lrow, Right: rrow})
		}
	}
	return out, nil
}

// NestedLoopJoin equijoins with the naive quadratic algorithm, using the
// right side's index on rcol when present (index nested-loop join). This
// is the join the paper calls "intolerably expensive" for CAD traversals.
func NestedLoopJoin(l, r *Relation, lcol, rcol string) ([]JoinRow, error) {
	li, ok := l.colIdx[lcol]
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoColumn, l.Name, lcol)
	}
	ri, ok := r.colIdx[rcol]
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoColumn, r.Name, rcol)
	}
	var out []JoinRow
	for lrow, lt := range l.rows {
		if lt == nil || lt[li].IsNull() {
			continue
		}
		if tree, ok := r.indexes[rcol]; ok {
			for _, oid := range tree.Search(model.Key(lt[li])) {
				out = append(out, JoinRow{Left: lrow, Right: oidRow(oid)})
			}
			continue
		}
		for rrow, rt := range r.rows {
			if rt == nil || rt[ri].IsNull() {
				continue
			}
			if model.Equal(lt[li], rt[ri]) {
				out = append(out, JoinRow{Left: lrow, Right: rrow})
			}
		}
	}
	return out, nil
}

// Project returns the values of the given columns for the given rows, in
// row order.
func (r *Relation) Project(rows []int, cols ...string) ([][]model.Value, error) {
	idxs := make([]int, len(cols))
	for i, c := range cols {
		ci, ok := r.colIdx[c]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNoColumn, c)
		}
		idxs[i] = ci
	}
	sorted := append([]int(nil), rows...)
	sort.Ints(sorted)
	out := make([][]model.Value, 0, len(sorted))
	for _, row := range sorted {
		tuple, err := r.Get(row)
		if err != nil {
			return nil, err
		}
		vals := make([]model.Value, len(idxs))
		for i, ci := range idxs {
			vals[i] = tuple[ci]
		}
		out = append(out, vals)
	}
	return out, nil
}
