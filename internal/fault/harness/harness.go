// Package harness drives the crash-recovery test matrix: a deterministic
// mixed commit/abort/DDL workload runs against an engine whose I/O is
// wrapped by internal/fault, crashes at a scheduled point, and is then
// reopened cleanly and checked against an in-memory reference model.
//
// The two recovery invariants (DESIGN.md "Durability & recovery"):
//
//  1. Every acknowledged commit is readable after recovery, and no
//     aborted or unacknowledged write is visible. A transaction whose
//     Commit call was in flight when the crash hit is indeterminate: the
//     checker accepts exactly-all or exactly-none of its effects.
//  2. Indexes and heap agree: every indexed entry resolves to a live
//     object whose attribute carries the indexed key, and every live
//     object is found under its key.
//
// Everything is reproducible from a fault.Schedule: the workload draws all
// decisions from its seed, labels every I/O op with the workload phase
// (open, ddl, dml, abort, group-commit, checkpoint, close) that the
// schedule's crash point is counted in, and the lost-write simulation at
// the crash point is seeded too.
package harness

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"

	"oodb/internal/core"
	"oodb/internal/fault"
	"oodb/internal/index"
	"oodb/internal/model"
	"oodb/internal/schema"
)

// rnd is the workload's own deterministic stream, separate from the
// injector's (which is consumed only at crash time).
type rnd struct{ r *rand.Rand }

func newRand(seed int64) *rnd { return &rnd{r: rand.New(rand.NewSource(seed))} }

func (r *rnd) intn(n int) int { return r.r.Intn(n) }

// bigValue pads prefix to a deterministic 4–12 KB string.
func bigValue(r *rnd, prefix string) string {
	n := 4096 + r.intn(8192)
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte('a' + i%26)
	}
	copy(buf, prefix)
	return string(buf)
}

// Model is the in-memory reference state: what the database must contain
// after crash recovery.
type Model struct {
	// Objects maps every acknowledged-live OID to its expected attributes
	// (only attributes the workload set explicitly; defaults are not
	// materialized).
	Objects map[model.OID]map[string]model.Value
	// Ever records every OID the workload ever allocated, acknowledged or
	// not — the universe of objects that could legitimately surface after a
	// recovery whose durability guarantees were voided (fsync lies).
	Ever map[model.OID]bool
	// History records every full attribute state each OID ever reached on
	// the heap, in write order — including states written by transactions
	// that later aborted or whose commit never acknowledged, because under
	// a lying fsync a crash can revert pages to any of them (an undo or a
	// redo may have hit the lie). CheckLied verifies the CONTENT of every
	// visible object against this set, not just its reachability.
	History map[model.OID][]map[string]model.Value
	// Indexes holds acknowledged-present index names mapped to the
	// attribute they index; acknowledged drops remove entries.
	Indexes map[string]IndexSpec
	// Maybe holds index names touched by a DDL that crashed mid-flight:
	// present or absent are both acceptable until resolved by a check.
	Maybe map[string]IndexSpec
	// NumAttrs and NumClasses number the extra attributes / filler classes
	// created by DDL steps (names are derived from the counters so a
	// crashed, retried DDL is idempotent).
	NumAttrs   int
	NumClasses int
}

// IndexSpec describes an index the workload created, by names the checker
// can resolve after reopen.
type IndexSpec struct {
	Class     string // class name the index is declared on
	Attr      string // indexed attribute (single-step path)
	Hierarchy bool
}

// NewModel returns an empty reference model.
func NewModel() *Model {
	return &Model{
		Objects: make(map[model.OID]map[string]model.Value),
		Ever:    make(map[model.OID]bool),
		History: make(map[model.OID][]map[string]model.Value),
		Indexes: make(map[string]IndexSpec),
		Maybe:   make(map[string]IndexSpec),
	}
}

func (m *Model) sortedOIDs() []model.OID {
	out := make([]model.OID, 0, len(m.Objects))
	for oid := range m.Objects {
		out = append(out, oid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TxnEffect is the pending effect of one transaction, applied to the model
// only when the transaction acknowledges, or held as the indeterminate
// candidate when the crash hit mid-commit.
type TxnEffect struct {
	ops []effOp
}

type effOp struct {
	del   bool
	oid   model.OID
	attrs map[string]model.Value
}

func (e *TxnEffect) put(oid model.OID, attrs map[string]model.Value) {
	e.ops = append(e.ops, effOp{oid: oid, attrs: attrs})
}

func (e *TxnEffect) delete(oid model.OID) {
	e.ops = append(e.ops, effOp{del: true, oid: oid})
}

// apply folds the effect into an object map (insert/update merge, delete
// removes).
func (e *TxnEffect) apply(objs map[model.OID]map[string]model.Value) {
	for _, op := range e.ops {
		if op.del {
			delete(objs, op.oid)
			continue
		}
		cur := objs[op.oid]
		if cur == nil {
			cur = make(map[string]model.Value, len(op.attrs))
			objs[op.oid] = cur
		}
		for k, v := range op.attrs {
			cur[k] = v
		}
	}
}

// RunResult reports how a workload run ended.
type RunResult struct {
	// Crashed is true when the injector's simulated crash (or an injected
	// error) terminated the run; false means the workload completed and
	// closed cleanly.
	Crashed bool
	// Indet is the effect of the transaction whose Commit was in flight at
	// the crash (nil when the crash hit outside a commit): the checker
	// accepts the model with or without it.
	Indet *TxnEffect
	// Err is the error that ended the run (nil on clean completion).
	Err error
}

// Run executes steps workload steps against the database in dir with the
// given injector, updating the model with every acknowledged effect. The
// same (seed, steps) always issues the same operation sequence, so a
// census run (injector that never fires) enumerates exactly the I/O ops a
// scheduled run will hit.
func Run(dir string, inj *fault.Injector, seed int64, steps int, m *Model) *RunResult {
	r := newRand(seed)
	inj.SetPhase("open")
	db, err := core.Open(dir, core.Options{
		PoolPages:       64,       // small pool: exercise eviction write-backs
		CheckpointBytes: 32 << 10, // small threshold: exercise auto-checkpoints
		WrapDisk:        fault.WrapDisk(inj, filepath.Join(dir, "data.kdb")),
		WrapWAL:         fault.WrapWAL(inj),
	})
	if err != nil {
		return &RunResult{Crashed: true, Err: err}
	}

	w := &workload{db: db, inj: inj, m: m, r: r}
	if res := w.ensureSchema(); res != nil {
		return res
	}
	for step := 0; step < steps; step++ {
		var res *RunResult
		switch {
		case step%7 == 3:
			res = w.ddlStep()
		case step%11 == 5:
			res = w.checkpointStep()
		default:
			res = w.txnStep()
		}
		if res != nil {
			return res
		}
	}
	inj.SetPhase("close")
	if err := db.Close(); err != nil {
		return &RunResult{Crashed: true, Err: err}
	}
	return &RunResult{}
}

type workload struct {
	db  *core.DB
	inj *fault.Injector
	m   *Model
	r   *rnd
}

// died wraps an error that ended the run. An error without the injector
// having crashed is a workload-level invariant violation (e.g. an object
// the model says is live was not found) and fails the test immediately.
func (w *workload) died(err error, indet *TxnEffect) *RunResult {
	return &RunResult{Crashed: w.inj.Crashed(), Indet: indet, Err: err}
}

// ensureSchema (re-)creates the fixed schema: class B(n Integer, s String),
// class S under B adding (m Integer), and the hierarchy index b_n on B.n.
// Every piece is existence-checked first so the step is idempotent across
// crash/recover cycles (a crashed DDL may have persisted half the
// ensemble: class without segment, class without index).
func (w *workload) ensureSchema() *RunResult {
	w.inj.SetPhase("ddl")
	db := w.db
	clB, err := db.Catalog.ClassByName("B")
	if err != nil {
		clB, err = db.DefineClass("B", nil,
			schema.AttrSpec{Name: "n", Domain: schema.ClassInteger, Default: model.Int(0)},
			schema.AttrSpec{Name: "s", Domain: schema.ClassString, Default: model.String("")},
		)
		if err != nil {
			return w.died(err, nil)
		}
	}
	clS, err := db.Catalog.ClassByName("S")
	if err != nil {
		clS, err = db.DefineClass("S", []model.ClassID{clB.ID},
			schema.AttrSpec{Name: "m", Domain: schema.ClassInteger, Default: model.Int(0)},
		)
		if err != nil {
			return w.died(err, nil)
		}
	}
	// Segment repair: a crash between the catalog checkpoint and the
	// segment-table checkpoint can leave a class without its segment.
	if err := db.Store.CreateSegment(clB.ID); err != nil {
		return w.died(err, nil)
	}
	if err := db.Store.CreateSegment(clS.ID); err != nil {
		return w.died(err, nil)
	}
	if _, err := db.Indexes.Get("b_n"); err != nil {
		// In-flight until the create acknowledges: a crash inside
		// CreateIndex leaves the index present-or-absent.
		w.m.Maybe["b_n"] = IndexSpec{Class: "B", Attr: "n", Hierarchy: true}
		if err := db.CreateIndex("b_n", clB.ID, []string{"n"}, true); err != nil {
			return w.died(err, nil)
		}
	}
	w.m.Indexes["b_n"] = IndexSpec{Class: "B", Attr: "n", Hierarchy: true}
	delete(w.m.Maybe, "b_n")
	return nil
}

// txnStep runs one transaction of 1–4 operations, committing or (25%)
// aborting it. Effects reach the model only on acknowledgment.
func (w *workload) txnStep() *RunResult {
	db, r, m := w.db, w.r, w.m
	abort := r.intn(4) == 0
	w.inj.SetPhase("dml")

	clB, err := db.Catalog.ClassByName("B")
	if err != nil {
		return w.died(err, nil)
	}
	clS, err := db.Catalog.ClassByName("S")
	if err != nil {
		return w.died(err, nil)
	}

	tx := db.Begin()
	eff := &TxnEffect{}
	live := m.sortedOIDs()
	// work tracks the heap state each OID reaches inside this transaction;
	// every write is recorded into m.History immediately — not on ack —
	// because even an aborted or unacknowledged state can resurface after a
	// crash behind a lying fsync.
	work := make(map[model.OID]map[string]model.Value)
	record := func(oid model.OID, attrs map[string]model.Value) {
		st, ok := work[oid]
		if !ok {
			st = make(map[string]model.Value, len(attrs))
			for k, v := range m.Objects[oid] {
				st[k] = v
			}
		}
		for k, v := range attrs {
			st[k] = v
		}
		work[oid] = st
		snap := make(map[string]model.Value, len(st))
		for k, v := range st {
			snap[k] = v
		}
		m.History[oid] = append(m.History[oid], snap)
	}
	nops := 1 + r.intn(4)
	for i := 0; i < nops; i++ {
		switch r.intn(10) {
		case 0, 1, 2, 3: // insert
			// A quarter of the inserts carry multi-KB strings: they fill
			// the WAL's append buffer and the small pool mid-transaction,
			// so real I/O (and therefore crash points) happens inside the
			// dml and abort phases, not only at commit boundaries.
			s := fmt.Sprintf("v%d", r.intn(100))
			if r.intn(4) == 0 {
				s = bigValue(r, s)
			}
			attrs := map[string]model.Value{
				"n": model.Int(int64(r.intn(1000))),
				"s": model.String(s),
			}
			class := clB.ID
			if r.intn(2) == 0 {
				class = clS.ID
				attrs["m"] = model.Int(int64(r.intn(1000)))
			}
			oid, err := tx.InsertClass(class, attrs)
			if err != nil {
				return w.died(err, nil)
			}
			m.Ever[oid] = true
			record(oid, attrs)
			eff.put(oid, attrs)
			live = append(live, oid)
		case 4, 5, 6: // update
			if len(live) == 0 {
				continue
			}
			oid := live[r.intn(len(live))]
			attrs := map[string]model.Value{"n": model.Int(int64(r.intn(1000)))}
			if oid.Class() == clS.ID && r.intn(2) == 0 {
				attrs = map[string]model.Value{"m": model.Int(int64(r.intn(1000)))}
			}
			if err := tx.Update(oid, attrs); err != nil {
				return w.died(err, nil)
			}
			record(oid, attrs)
			eff.put(oid, attrs)
		default: // delete
			if len(live) == 0 {
				continue
			}
			k := r.intn(len(live))
			oid := live[k]
			if err := tx.Delete(oid); err != nil {
				return w.died(err, nil)
			}
			eff.delete(oid)
			live = append(live[:k], live[k+1:]...)
		}
	}
	if abort {
		w.inj.SetPhase("abort")
		if err := tx.Abort(); err != nil {
			// A crashed abort leaves a loser transaction: recovery undoes
			// it entirely, so the effect must be invisible — same as an
			// acknowledged abort. Nothing indeterminate.
			return w.died(err, nil)
		}
		return nil
	}
	w.inj.SetPhase("group-commit")
	if err := tx.Commit(); err != nil {
		// The ack never reached the "application": the commit record may or
		// may not be durable. Both all-and-nothing outcomes are acceptable.
		return w.died(err, eff)
	}
	eff.apply(m.Objects)
	return nil
}

// ddlStep performs one schema operation: add an attribute to B, toggle the
// secondary index s_m on S.m, or define a filler subclass. All acknowledged
// DDL is durable (the DDL path checkpoints before returning), so the model
// records it on ack; a crashed index toggle goes into the Maybe set.
func (w *workload) ddlStep() *RunResult {
	db, m := w.db, w.m
	w.inj.SetPhase("ddl")
	switch w.r.intn(3) {
	case 0: // add attribute xN to B
		clB, err := db.Catalog.ClassByName("B")
		if err != nil {
			return w.died(err, nil)
		}
		name := fmt.Sprintf("x%d", m.NumAttrs)
		if _, err := db.Catalog.ResolveAttr(clB.ID, name); err == nil {
			m.NumAttrs++ // a crashed earlier attempt actually landed
			return nil
		}
		if _, err := db.AddAttribute(clB.ID, schema.AttrSpec{
			Name: name, Domain: schema.ClassInteger, Default: model.Int(0),
		}); err != nil {
			return w.died(err, nil)
		}
		m.NumAttrs++
	case 1: // toggle index s_m on S.m
		spec := IndexSpec{Class: "S", Attr: "m"}
		if _, err := db.Indexes.Get("s_m"); err == nil {
			m.Maybe["s_m"] = spec
			if err := db.DropIndex("s_m"); err != nil {
				return w.died(err, nil)
			}
			delete(m.Indexes, "s_m")
			delete(m.Maybe, "s_m")
		} else {
			clS, err := db.Catalog.ClassByName("S")
			if err != nil {
				return w.died(err, nil)
			}
			m.Maybe["s_m"] = spec
			if err := db.CreateIndex("s_m", clS.ID, []string{"m"}, false); err != nil {
				return w.died(err, nil)
			}
			m.Indexes["s_m"] = spec
			delete(m.Maybe, "s_m")
		}
	default: // define filler subclass CN under B
		name := fmt.Sprintf("C%d", m.NumClasses)
		if _, err := db.Catalog.ClassByName(name); err == nil {
			m.NumClasses++
			return nil
		}
		clB, err := db.Catalog.ClassByName("B")
		if err != nil {
			return w.died(err, nil)
		}
		if _, err := db.DefineClass(name, []model.ClassID{clB.ID}); err != nil {
			return w.died(err, nil)
		}
		m.NumClasses++
	}
	return nil
}

func (w *workload) checkpointStep() *RunResult {
	w.inj.SetPhase("checkpoint")
	if err := w.db.Checkpoint(); err != nil {
		return w.died(err, nil)
	}
	return nil
}

// Check reopens the database in dir WITHOUT fault injection (the reboot)
// and verifies both recovery invariants against the model. indet, when
// non-nil, is the in-flight commit's effect: the check passes if the
// database matches the model either without it or with it applied in full;
// whichever matched is folded into the model so multi-cycle runs continue
// from truth. Maybe-indexes are resolved against observed state.
func Check(dir string, m *Model, indet *TxnEffect) error {
	db, err := core.Open(dir, core.Options{})
	if err != nil {
		return fmt.Errorf("recovery reopen: %w", err)
	}
	defer db.Close()

	errExact := checkObjects(db, m.Objects)
	if errExact != nil && indet != nil {
		withIndet := cloneObjects(m.Objects)
		indet.apply(withIndet)
		if err := checkObjects(db, withIndet); err != nil {
			return fmt.Errorf("neither commit outcome matches: without indet: %v; with indet: %w", errExact, err)
		}
		indet.apply(m.Objects) // the in-flight commit actually landed
	} else if errExact != nil {
		return errExact
	}

	if err := checkIndexes(db, m); err != nil {
		return err
	}
	return nil
}

// CheckLied is the weakened post-recovery check for runs where the lie
// window actually armed (fault.Injector.Lied): a device that acknowledges
// fsync without durability voids every durability guarantee. An
// acknowledged commit may be lost wholesale — a checkpoint trusting the
// lying fsync truncates the only copy of its redo records — and a loser's
// writes may surface, because unsynced pages can survive a crash while the
// WAL tail holding their undo records did not. No write-ahead protocol can
// detect the lie without reading back; see DESIGN.md.
//
// What recovery must still deliver: it never wedges or panics. The reopen
// either fails with a clean error (even the catalog may be gone) or yields
// a readable state in which every visible object (a) was written by the
// workload and (b) reads back as SOME state the workload actually put it
// in — a crash behind a lying fsync may revert an object to any version it
// ever held (committed, aborted-then-lost-undo, or unacknowledged), but it
// must never fabricate content that was never written.
func CheckLied(dir string, m *Model) error {
	db, err := core.Open(dir, core.Options{})
	if err != nil {
		// Data loss up to and including the catalog: accepted under lying
		// fsyncs, as long as it is a clean error, which reaching this
		// return proves.
		return nil
	}
	defer db.Close()
	for _, c := range db.Store.Classes() {
		var oids []model.OID
		err := db.Store.ScanClass(c, func(oid model.OID, _ []byte) bool {
			oids = append(oids, oid)
			return true
		})
		if err != nil {
			return fmt.Errorf("lie recovery: scan class %d: %w", c, err)
		}
		for _, oid := range oids {
			if !m.Ever[oid] {
				return fmt.Errorf("lie recovery: object %s visible but never written by the workload", oid)
			}
			obj, err := db.FetchObject(oid)
			if err != nil {
				return fmt.Errorf("lie recovery: visible object %s unreadable: %w", oid, err)
			}
			states := m.History[oid]
			matched := false
			for _, st := range states {
				if stateMatches(db, obj, st) {
					matched = true
					break
				}
			}
			if !matched {
				return fmt.Errorf("lie recovery: object %s content matches none of its %d recorded states", oid, len(states))
			}
		}
	}
	return nil
}

// stateMatches reports whether obj reads back equal to one recorded
// historical state on every attribute that state set.
func stateMatches(db *core.DB, obj *model.Object, st map[string]model.Value) bool {
	for name, want := range st {
		got, err := db.AttrValue(obj, name)
		if err != nil || model.Compare(got, want) != 0 {
			return false
		}
	}
	return true
}

func cloneObjects(objs map[model.OID]map[string]model.Value) map[model.OID]map[string]model.Value {
	out := make(map[model.OID]map[string]model.Value, len(objs))
	for oid, attrs := range objs {
		cp := make(map[string]model.Value, len(attrs))
		for k, v := range attrs {
			cp[k] = v
		}
		out[oid] = cp
	}
	return out
}

// checkObjects verifies invariant 1: the set of live objects in classes B
// and S (and filler subclasses) equals the model's, and every expected
// attribute reads back equal.
func checkObjects(db *core.DB, want map[model.OID]map[string]model.Value) error {
	got := make(map[model.OID]bool)
	for _, c := range db.Store.Classes() {
		err := db.Store.ScanClass(c, func(oid model.OID, _ []byte) bool {
			got[oid] = true
			return true
		})
		if err != nil {
			return fmt.Errorf("scan class %d: %w", c, err)
		}
	}
	for oid := range got {
		if _, ok := want[oid]; !ok {
			return fmt.Errorf("object %s visible after recovery but never acknowledged", oid)
		}
	}
	for oid, attrs := range want {
		if !got[oid] {
			return fmt.Errorf("acknowledged object %s lost after recovery", oid)
		}
		obj, err := db.FetchObject(oid)
		if err != nil {
			return fmt.Errorf("fetch acknowledged object %s: %w", oid, err)
		}
		for name, wantV := range attrs {
			gotV, err := db.AttrValue(obj, name)
			if err != nil {
				return fmt.Errorf("object %s attr %q: %w", oid, name, err)
			}
			if model.Compare(gotV, wantV) != 0 {
				return fmt.Errorf("object %s attr %q: got %v want %v", oid, name, gotV, wantV)
			}
		}
	}
	return nil
}

// checkIndexes verifies invariant 2 (index/heap agreement) for every index
// the harness knows, and resolves Maybe entries against observed state.
func checkIndexes(db *core.DB, m *Model) error {
	for name, spec := range m.Indexes {
		if _, inFlight := m.Maybe[name]; inFlight {
			continue // a crashed drop was in flight: Maybe overrides
		}
		if _, err := db.Indexes.Get(name); err != nil {
			return fmt.Errorf("acknowledged index %q missing after recovery", name)
		}
		if err := checkIndexAgreement(db, name, spec, m.Objects); err != nil {
			return err
		}
	}
	for name, spec := range m.Maybe {
		if _, err := db.Indexes.Get(name); err != nil {
			delete(m.Indexes, name) // the crashed drop actually landed
			delete(m.Maybe, name)
			continue // absent: the crashed create never landed
		}
		if err := checkIndexAgreement(db, name, spec, m.Objects); err != nil {
			return err
		}
		m.Indexes[name] = spec
		delete(m.Maybe, name)
	}
	return nil
}

func checkIndexAgreement(db *core.DB, name string, spec IndexSpec, objs map[model.OID]map[string]model.Value) error {
	idx, err := db.Indexes.Get(name)
	if err != nil {
		return err
	}
	cl, err := db.Catalog.ClassByName(spec.Class)
	if err != nil {
		return fmt.Errorf("index %q: class %q: %w", name, spec.Class, err)
	}
	covered := map[model.ClassID]bool{cl.ID: true}
	if spec.Hierarchy {
		descs, err := db.Catalog.Descendants(cl.ID)
		if err != nil {
			return err
		}
		for _, d := range descs {
			covered[d] = true
		}
	}
	// Forward: every covered live object is found under its key.
	for oid, attrs := range objs {
		if !covered[oid.Class()] {
			continue
		}
		key, ok := attrs[spec.Attr]
		if !ok {
			// The workload always sets indexed attributes at insert; an
			// object without one predates the index-covered class set.
			continue
		}
		found := false
		for _, hit := range idx.Lookup(key, nil) {
			if hit == oid {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("index %q: live object %s not found under key %v", name, oid, key)
		}
	}
	// Backward: every posting resolves to a live object (no dangling).
	var dangling error
	idx.Scan(index.Interval{}, nil, func(oid model.OID) bool {
		if _, ok := objs[oid]; !ok {
			dangling = fmt.Errorf("index %q: dangling posting %s (object not live)", name, oid)
		}
		return dangling == nil
	})
	return dangling
}
