package query

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/obs"
	"oodb/internal/schema"
)

// rangeObj is the in-test model of one stored object.
type rangeObj struct {
	oid   model.OID
	class string
	val   model.Value // null for the null-valued objects
	nums  []int64
	tag   string
}

// rangeWorld is a four-class hierarchy R > {R1 > R11, R2} whose instances
// carry a heavily tied integer val (a few of them null), a set-valued nums
// and a unique tag, plus the model the differential tests answer from.
type rangeWorld struct {
	db   *core.DB
	objs []rangeObj
	subs map[string][]string // class -> the classes a FROM over it ranges over
}

var rangeClasses = []string{"R", "R1", "R11", "R2"}

// newRangeWorld builds the world and indexes val either with one
// class-hierarchy index or with one single-class index per class; nums
// always gets a class-hierarchy index.
func newRangeWorld(t testing.TB, chIndex bool) *rangeWorld {
	t.Helper()
	db, err := core.Open(t.TempDir(), core.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	w := &rangeWorld{db: db, subs: map[string][]string{
		"R": rangeClasses, "R1": {"R1", "R11"}, "R11": {"R11"}, "R2": {"R2"}}}
	root, err := db.DefineClass("R", nil,
		schema.AttrSpec{Name: "val", Domain: schema.ClassInteger},
		schema.AttrSpec{Name: "nums", Domain: schema.ClassInteger, SetValued: true},
		schema.AttrSpec{Name: "tag", Domain: schema.ClassString})
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := db.DefineClass("R1", []model.ClassID{root.ID})
	db.DefineClass("R11", []model.ClassID{r1.ID})
	db.DefineClass("R2", []model.ClassID{root.ID})
	err = db.Do(func(tx *core.Tx) error {
		// Interleave the classes so OID order, insertion order and value
		// order all disagree.
		for i := 0; i < 48; i++ {
			for ci, class := range rangeClasses {
				o := rangeObj{class: class, tag: fmt.Sprintf("%s-%02d", class, i), val: model.Null}
				attrs := map[string]model.Value{"tag": model.String(o.tag)}
				if i%12 != 11 {
					o.val = model.Int(int64((i*7+ci*3)%20 - 2)) // -2..17, ~9 ties per value
					attrs["val"] = o.val
				}
				o.nums = []int64{int64(i % 9), int64(i%9 + 11)}
				attrs["nums"] = model.Set(model.Int(o.nums[0]), model.Int(o.nums[1]))
				oid, err := tx.Insert(class, attrs)
				if err != nil {
					return err
				}
				o.oid = oid
				w.objs = append(w.objs, o)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if chIndex {
		err = db.CreateIndex("r_val", root.ID, []string{"val"}, true)
	} else {
		for _, class := range rangeClasses {
			cl, _ := db.Catalog.ClassByName(class)
			if err = db.CreateIndex("sc_"+class, cl.ID, []string{"val"}, false); err != nil {
				break
			}
		}
	}
	if err == nil {
		err = db.CreateIndex("r_nums", root.ID, []string{"nums"}, true)
	}
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// inScope reports whether the object's class is ranged over by FROM [ONLY] class.
func (w *rangeWorld) inScope(o rangeObj, class string, only bool) bool {
	if only {
		return o.class == class
	}
	for _, c := range w.subs[class] {
		if c == o.class {
			return true
		}
	}
	return false
}

// expect answers `FROM [ONLY] class WHERE <keep> [ORDER BY val [DESC]]
// [LIMIT n]` from the model. Ties come out in OID order: that is what the
// stable sort over an index walk — (key, OID) order, per-class indexes in
// class order — produced before the index supplied the order itself.
func (w *rangeWorld) expect(class string, only bool, keep func(rangeObj) bool, order string, limit int) []rangeObj {
	var out []rangeObj
	for _, o := range w.objs {
		if w.inScope(o, class, only) && keep(o) {
			out = append(out, o)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].oid < out[j].oid })
	switch order {
	case "ASC":
		sort.SliceStable(out, func(i, j int) bool { return model.Compare(out[i].val, out[j].val) < 0 })
	case "DESC":
		sort.SliceStable(out, func(i, j int) bool { return model.Compare(out[i].val, out[j].val) > 0 })
	}
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

func oidsOf(res *Result) []model.OID {
	out := make([]model.OID, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r.OID
	}
	return out
}

func runIn(t testing.TB, tx *core.Tx, eng *Engine, src string) *Result {
	t.Helper()
	res, err := eng.Run(tx, src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return res
}

func runLocked(t testing.TB, db *core.DB, eng *Engine, src string) *Result {
	t.Helper()
	tx := db.Begin()
	defer tx.Commit()
	return runIn(t, tx, eng, src)
}

// checkAgainstModel runs src through the indexed engine and the ForceScan
// engine and holds both to the model's answer: the indexed plan exactly
// (OID for OID, which pins tie order) wherever ORDER BY fixes the order,
// the scan plan by its ORDER BY values (its ties may legitimately fall
// differently), and both as sets when nothing is cut off.
//
// oidTies is false for a set-valued index: its walk meets an object once per
// member, so arrival order among equal ORDER BY values is not OID order.
func checkAgainstModel(t *testing.T, w *rangeWorld, src string, want []rangeObj, ordered bool, limit int, oidTies bool) {
	t.Helper()
	indexed, scan := NewEngine(w.db), NewEngine(w.db)
	scan.ForceScan = true
	if p := mustPlan(t, indexed, src); !p.IndexUsed() {
		t.Fatalf("%s: planned %s, want an index plan", src, p)
	}
	got := runLocked(t, w.db, indexed, src)
	ref := runLocked(t, w.db, scan, src)
	if len(got.Rows) != len(want) || len(ref.Rows) != len(want) {
		t.Fatalf("%s: indexed %d rows, scan %d rows, model %d", src, len(got.Rows), len(ref.Rows), len(want))
	}
	byOID := make(map[model.OID]rangeObj, len(w.objs))
	for _, o := range w.objs {
		byOID[o.oid] = o
	}
	wantSet := map[model.OID]bool{}
	for i, o := range want {
		wantSet[o.oid] = true
		if !ordered {
			continue
		}
		if oidTies && got.Rows[i].OID != o.oid {
			t.Fatalf("%s: indexed row %d is %s (%s), want %s (%s)\n got %v", src, i,
				got.Rows[i].OID, byOID[got.Rows[i].OID].tag, o.oid, o.tag, oidsOf(got))
		}
		if gv := byOID[got.Rows[i].OID].val; model.Compare(gv, o.val) != 0 {
			t.Fatalf("%s: indexed row %d has val %s, want %s", src, i, gv, o.val)
		}
		if rv := byOID[ref.Rows[i].OID].val; model.Compare(rv, o.val) != 0 {
			t.Fatalf("%s: scan row %d has val %s, want %s", src, i, rv, o.val)
		}
	}
	if limit == 0 || len(want) < limit {
		for _, res := range []*Result{got, ref} {
			for _, oid := range oidsOf(res) {
				if !wantSet[oid] {
					t.Fatalf("%s: row %s (%s) is not in the model's answer", src, oid, byOID[oid].tag)
				}
			}
		}
	}
}

// TestRangeDifferentialGrid is the indexed-vs-scan differential over the
// two-sided range grid: both strictness choices on both bounds, equal,
// adjacent, contradictory and out-of-domain bounds, every ORDER BY and
// LIMIT shape, hierarchy and ONLY scopes, through one CH index and through
// a union of SC indexes.
func TestRangeDifferentialGrid(t *testing.T) {
	bounds := [][2]int64{{5, 5}, {5, 6}, {9, 3}, {-10, -5}, {100, 200}, {3, 15}, {-5, 8}, {15, 100}}
	scopes := []struct {
		class string
		only  bool
	}{{"R", false}, {"R", true}, {"R1", false}, {"R11", true}}
	for _, ch := range []bool{true, false} {
		w := newRangeWorld(t, ch)
		n := 0
		for _, lop := range []string{">", ">="} {
			for _, hop := range []string{"<", "<="} {
				for _, b := range bounds {
					lo, hi := b[0], b[1]
					keep := func(o rangeObj) bool {
						v, ok := o.val.AsInt()
						return ok && (v > lo || (lop == ">=" && v == lo)) && (v < hi || (hop == "<=" && v == hi))
					}
					for _, sc := range scopes {
						for _, order := range []string{"", "ASC", "DESC"} {
							for _, limit := range []int{0, 1, 4, 1000} {
								from := sc.class
								if sc.only {
									from = "ONLY " + from
								}
								src := fmt.Sprintf("SELECT tag FROM %s WHERE val %s %d AND val %s %d", from, lop, lo, hop, hi)
								if order != "" {
									src += " ORDER BY val " + order
								}
								if limit > 0 {
									src += fmt.Sprintf(" LIMIT %d", limit)
								}
								want := w.expect(sc.class, sc.only, keep, order, limit)
								checkAgainstModel(t, w, src, want, order != "", limit, true)
								n++
							}
						}
					}
				}
			}
		}
		t.Logf("chIndex=%v: %d statements", ch, n)
	}
}

// TestRangeDifferentialShapes covers what the grid does not: the literal
// on the left, a bound given twice, an equality among ranges, one-sided
// ranges, a set-valued path (whose bounds must not be intersected) and a
// second conjunct the index knows nothing about.
func TestRangeDifferentialShapes(t *testing.T) {
	intVal := func(f func(v int64) bool) func(rangeObj) bool {
		return func(o rangeObj) bool {
			v, ok := o.val.AsInt()
			return ok && f(v)
		}
	}
	anyNum := func(f func(n int64) bool) func(rangeObj) bool {
		return func(o rangeObj) bool { return f(o.nums[0]) || f(o.nums[1]) }
	}
	cases := []struct {
		where string
		keep  func(rangeObj) bool
	}{
		{"10 > val AND 4 <= val", intVal(func(v int64) bool { return v < 10 && v >= 4 })},
		{"val >= 2 AND val > 6 AND val < 30 AND val <= 9", intVal(func(v int64) bool { return v > 6 && v <= 9 })},
		{"val >= 6 AND val > 6 AND val < 12", intVal(func(v int64) bool { return v > 6 && v < 12 })},
		{"val > 3 AND val = 7 AND val < 9", intVal(func(v int64) bool { return v == 7 })},
		{"val = 7 AND val > 8", intVal(func(v int64) bool { return false })},
		{"val = 7 AND val = 8", intVal(func(v int64) bool { return false })},
		{"val >= 14", intVal(func(v int64) bool { return v >= 14 })},
		{"val < 1", intVal(func(v int64) bool { return v < 1 })},
		{"val >= 4 AND val < 9 AND tag >= 'R1'", func(o rangeObj) bool {
			v, ok := o.val.AsInt()
			return ok && v >= 4 && v < 9 && o.tag >= "R1"
		}},
		// Existential comparison: {3,14} satisfies both bounds with no member
		// in [5,10), so only one bound may narrow the probe.
		{"nums >= 5 AND nums < 10", anyNum(func(n int64) bool { return n >= 5 })},
		{"nums > 12 AND nums < 2", func(o rangeObj) bool { return o.nums[1] > 12 && o.nums[0] < 2 }},
		{"nums CONTAINS 4 AND nums > 14", func(o rangeObj) bool { return o.nums[0] == 4 && o.nums[1] > 14 }},
	}
	for _, ch := range []bool{true, false} {
		w := newRangeWorld(t, ch)
		for _, tc := range cases {
			for _, order := range []string{"", "ASC", "DESC"} {
				for _, limit := range []int{0, 3} {
					src := "SELECT tag FROM R WHERE " + tc.where
					if order != "" {
						src += " ORDER BY val " + order
					}
					if limit > 0 {
						src += fmt.Sprintf(" LIMIT %d", limit)
					}
					checkAgainstModel(t, w, src, w.expect("R", false, tc.keep, order, limit), order != "", limit,
						!strings.HasPrefix(tc.where, "nums"))
				}
			}
		}
	}
}

// TestRangePlanStrings pins what EXPLAIN says about an index range plan:
// the folded interval, where the order comes from, and the limit.
func TestRangePlanStrings(t *testing.T) {
	ch, sc := newRangeWorld(t, true), newRangeWorld(t, false)
	cases := []struct {
		w    *rangeWorld
		src  string
		want string
	}{
		{ch, "SELECT tag FROM R WHERE val >= 4 AND val < 9 ORDER BY val LIMIT 10",
			"scope=R(4 classes) access=index-range(r_val)[4,9) order=index limit=10 residual=((val >= 4) AND (val < 9))"},
		{ch, "SELECT tag FROM R WHERE 9 >= val AND val > 4 AND val > 2",
			"access=index-range(r_val)(4,9] residual="},
		{ch, "SELECT tag FROM R WHERE val > 4 ORDER BY val DESC", "access=index-range(r_val)(4,+inf) order=sort residual="},
		{ch, "SELECT tag FROM R WHERE val <= 4 ORDER BY tag", "access=index-range(r_val)(-inf,4] order=sort residual="},
		{ch, "SELECT tag FROM R WHERE val = 4 AND val < 9 ORDER BY val", "access=index-eq(r_val)[4,4] order=index residual="},
		{ch, "SELECT tag FROM R WHERE val >= 50 AND val < 10 ORDER BY val", "access=index-range(r_val)[50,10) order=index residual="},
		{ch, "SELECT tag FROM ONLY R2 WHERE val >= 4 AND val <= 4 ORDER BY val LIMIT 1",
			"scope=R2(1 classes) access=index-range(r_val)[4,4] order=index limit=1 residual="},
		// A set-valued path keeps a single bound and never supplies order.
		{ch, "SELECT tag FROM R WHERE nums >= 5 AND nums < 10 ORDER BY nums", "access=index-range(r_nums)[5,+inf) order=sort residual="},
		{ch, "SELECT tag FROM R WHERE nums CONTAINS 4 AND nums > 14", "access=index-eq(r_nums)[4,4] residual="},
		// A union of per-class indexes folds the interval but cannot merge.
		{sc, "SELECT tag FROM R WHERE val >= 4 AND val < 9 ORDER BY val LIMIT 10",
			"access=index-union-range(4 indexes)[4,9) order=sort limit=10 residual="},
		{sc, "SELECT tag FROM ONLY R1 WHERE val >= 4 AND val < 9 ORDER BY val LIMIT 10",
			"access=index-range(sc_R1)[4,9) order=index limit=10 residual="},
		// Strict bounds stay inclusive where keys stop being exact (2^53).
		{ch, "SELECT tag FROM R WHERE val > 9007199254740992 AND val < 9007199254740995",
			"access=index-range(r_val)[9007199254740992,9007199254740995] residual="},
	}
	for _, tc := range cases {
		got := mustPlan(t, NewEngine(tc.w.db), tc.src).String()
		if !strings.Contains(got, tc.want) {
			t.Errorf("%s\n plan %s\n want %s", tc.src, got, tc.want)
		}
	}
}

// TestRangeWorkProportionalToAnswer is the count behind the claim: an
// ordered, limited index range examines about LIMIT objects and skips the
// sort; a contradictory interval examines none and never descends the tree.
func TestRangeWorkProportionalToAnswer(t *testing.T) {
	w := newRangeWorld(t, true)
	eng := NewEngine(w.db)
	examined := func(src string) (uint64, string) {
		t.Helper()
		tx := w.db.Begin()
		defer tx.Commit()
		before := mRowsScanned.Value()
		out, err := eng.ExplainAnalyze(tx, src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		return mRowsScanned.Value() - before, out
	}
	n, out := examined("SELECT tag FROM R WHERE val >= 4 AND val < 12 ORDER BY val LIMIT 5")
	if n != 5 {
		t.Errorf("ordered LIMIT 5 examined %d objects, want 5\n%s", n, out)
	}
	for _, s := range []string{"order=index limit=5", "rows_examined=5", "rows_matched=5", "sort_skipped=1", "limit_early_exit=1"} {
		if !strings.Contains(out, s) {
			t.Errorf("EXPLAIN ANALYZE lacks %q:\n%s", s, out)
		}
	}
	if strings.Contains(out, "sort ") {
		t.Errorf("EXPLAIN ANALYZE shows a sort stage for an index-ordered plan:\n%s", out)
	}
	// The interval is bounded on both sides: a sorted plan examines its
	// members (vals 4..11, nulls and the rest of the domain excluded).
	inside := len(w.expect("R", false, func(o rangeObj) bool {
		v, ok := o.val.AsInt()
		return ok && v >= 4 && v < 12
	}, "", 0))
	if n, out = examined("SELECT tag FROM R WHERE val >= 4 AND val < 12 ORDER BY val DESC LIMIT 5"); int(n) != inside {
		t.Errorf("sorted plan examined %d objects, want the %d inside the interval\n%s", n, inside, out)
	}
	if !strings.Contains(out, "order=sort") || strings.Contains(out, "sort_skipped") {
		t.Errorf("DESC plan must sort:\n%s", out)
	}
	descents := func() uint64 { return obs.Default().Snapshot().Counters["index_probe_lookups_total"] }
	before := descents()
	if n, out = examined("SELECT tag FROM R WHERE val >= 50 AND val < 10 ORDER BY val"); n != 0 {
		t.Errorf("contradictory interval examined %d objects\n%s", n, out)
	}
	if d := descents() - before; d != 0 {
		t.Errorf("contradictory interval descended the tree %d times", d)
	}
}

// TestRangeOrderInexactKeys: integers from 2^53 up share float64-rounded
// index keys, so key order stops being value order there. The ordered walk
// must notice and fall back to the sort — with LIMIT 1 the first posting
// under the shared key is the larger value.
func TestRangeOrderInexactKeys(t *testing.T) {
	w := newRangeWorld(t, true)
	const big = int64(1) << 53
	var hi, lo model.OID
	err := w.db.Do(func(tx *core.Tx) error {
		var err error
		if hi, err = tx.Insert("R", map[string]model.Value{"tag": model.String("big+1"), "val": model.Int(big + 1)}); err != nil {
			return err
		}
		lo, err = tx.Insert("R", map[string]model.Value{"tag": model.String("big"), "val": model.Int(big)})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	indexed, scan := NewEngine(w.db), NewEngine(w.db)
	scan.ForceScan = true
	for _, tc := range []struct {
		src  string
		want []model.OID
	}{
		{"SELECT tag FROM R WHERE val >= 100 ORDER BY val LIMIT 1", []model.OID{lo}},
		{"SELECT tag FROM R WHERE val >= 100 ORDER BY val", []model.OID{lo, hi}},
		{fmt.Sprintf("SELECT tag FROM R WHERE val > %d ORDER BY val", big), []model.OID{hi}},
		{fmt.Sprintf("SELECT tag FROM R WHERE val >= 100 AND val < %d ORDER BY val", big+1), []model.OID{lo}},
	} {
		if p := mustPlan(t, indexed, tc.src); !p.ordered {
			t.Fatalf("%s: plan %s does not take its order from the index", tc.src, p)
		}
		for name, eng := range map[string]*Engine{"indexed": indexed, "scan": scan} {
			if got := oidsOf(runLocked(t, w.db, eng, tc.src)); fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("%s (%s): got %v, want %v", tc.src, name, got, tc.want)
			}
		}
	}
}

// TestRangeSnapshotOverlayForcesSort: a snapshot's ordered, limited range
// must equal the same statement under S locks taken at the snapshot's
// epoch, even after a writer has re-keyed objects into and out of the
// interval. The live index no longer describes the snapshot then, so the
// early stop is void: the object moved out of the interval is gone from
// the index yet belongs in the answer, and the one moved in does not.
// (Values are unique here; among ties a snapshot may order moved objects
// differently from a locked walk, as it always could.)
func TestRangeSnapshotOverlayForcesSort(t *testing.T) {
	db, eng, _ := selDB(t, 600, 600)
	const src = "SELECT n FROM P WHERE n >= 100 AND n < 200 ORDER BY n LIMIT 6"
	if p := mustPlan(t, eng, src); !p.ordered {
		t.Fatalf("plan %s does not take its order from the index", p)
	}
	snap := db.BeginSnapshot()
	defer snap.Commit()
	want := oidsOf(runLocked(t, db, eng, src))
	if got := oidsOf(runIn(t, snap, eng, src)); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("quiesced snapshot: got %v, want %v", got, want)
	}
	outside := oidsOf(runLocked(t, db, eng, "SELECT n FROM P WHERE n = 500"))[0]
	err := db.Do(func(tx *core.Tx) error {
		// The first answer row leaves the interval, the third moves to its
		// far end, and an outsider takes the front.
		if err := tx.Update(want[0], map[string]model.Value{"n": model.Int(5000)}); err != nil {
			return err
		}
		if err := tx.Update(want[2], map[string]model.Value{"n": model.Int(199)}); err != nil {
			return err
		}
		return tx.Update(outside, map[string]model.Value{"n": model.Int(100)})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := oidsOf(runIn(t, snap, eng, src)); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("snapshot after re-keying: got %v, want %v", got, want)
	}
	now := oidsOf(runLocked(t, db, eng, src))
	if len(now) != 6 || now[0] != outside || now[1] != want[1] || now[2] != want[3] {
		t.Fatalf("current answer after re-keying = %v (was %v, outsider %s)", now, want, outside)
	}
}

// TestRangeSnapshotCommitDuringWalk: the overlay is empty when a snapshot's
// ordered walk starts and a commit lands while it runs (made deterministic by
// a method in the residual that commits from inside the walk; a snapshot
// holds no locks, and Scan holds none across its callback). The re-keyed
// object lies beyond the postings already copied, so the stale walk would
// fill LIMIT one row too far. probeRows must notice on the post-walk overlay
// read, keep what it has, resume the walk for the rest and sort — counting
// one probe, not two.
func TestRangeSnapshotCommitDuringWalk(t *testing.T) {
	const src = "SELECT n FROM P WHERE n >= 100 AND n < 200 AND poke = 1 ORDER BY n LIMIT 80"
	// Each round needs a database with no version chains yet.
	for _, analyze := range []bool{false, true} {
		db, eng, cl := selDB(t, 600, 600)
		victim := oidsOf(runLocked(t, db, eng, "SELECT n FROM P WHERE n = 170"))[0]
		calls := 3 // disarmed
		err := db.AddMethod(cl.ID, "poke", func(schema.MethodEngine, *model.Object, []model.Value) (model.Value, error) {
			if calls++; calls == 3 {
				err := db.Do(func(tx *core.Tx) error {
					return tx.Update(victim, map[string]model.Value{"n": model.Int(5000)})
				})
				if err != nil {
					return model.Null, err
				}
			}
			return model.Int(1), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if p := mustPlan(t, eng, src); !p.ordered {
			t.Fatalf("plan %s does not take its order from the index", p)
		}
		want := valsOf(runLocked(t, db, eng, src))
		snap := db.BeginSnapshot()
		calls = 0
		probes := mIndexProbes.Value()
		if !analyze {
			if got := valsOf(runIn(t, snap, eng, src)); got != want {
				t.Errorf("snapshot with a commit during the walk:\n got %s\nwant %s", got, want)
			}
		} else {
			out, err := eng.ExplainAnalyze(snap, src)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Count(out, "probe p_n") != 1 || !strings.Contains(out, "resume p_n") ||
				!strings.Contains(out, "overlay P") || strings.Contains(out, "sort_skipped") {
				t.Errorf("EXPLAIN ANALYZE of the downgraded walk:\n%s", out)
			}
		}
		if d := mIndexProbes.Value() - probes; d != 1 {
			t.Errorf("counted %d index probes, want 1", d)
		}
		snap.Commit()
	}
}

// TestRangeNestedPathSorts: a nested-path index is re-keyed by writes to the
// interior class, which is outside the query's scope — no S lock of the
// reader covers it and the scope's snapshot overlay stays empty. Such a plan
// may narrow by the index but never takes its order from it: after every
// Owner.w has been reversed under a snapshot, the snapshot's ordered, limited
// answer still equals the heap-scan plan's on the same snapshot.
func TestRangeNestedPathSorts(t *testing.T) {
	db, err := core.Open(t.TempDir(), core.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	owner, err := db.DefineClass("Owner", nil, schema.AttrSpec{Name: "w", Domain: schema.ClassInteger})
	if err != nil {
		t.Fatal(err)
	}
	item, err := db.DefineClass("Item", nil,
		schema.AttrSpec{Name: "tag", Domain: schema.ClassString},
		schema.AttrSpec{Name: "owner", Domain: owner.ID})
	if err != nil {
		t.Fatal(err)
	}
	var owners []model.OID
	err = db.Do(func(tx *core.Tx) error {
		for i := 0; i < 10; i++ {
			o, err := tx.Insert("Owner", map[string]model.Value{"w": model.Int(int64(i))})
			if err != nil {
				return err
			}
			owners = append(owners, o)
			if _, err = tx.Insert("Item", map[string]model.Value{
				"tag": model.String(fmt.Sprintf("i%d", i)), "owner": model.Ref(o)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("item_w", item.ID, []string{"owner", "w"}, true); err != nil {
		t.Fatal(err)
	}
	indexed, scan := NewEngine(db), NewEngine(db)
	scan.ForceScan = true
	const src = "SELECT tag FROM Item WHERE owner.w >= 0 ORDER BY owner.w LIMIT 3"
	if p := mustPlan(t, indexed, src); !p.IndexUsed() || p.ordered || !strings.Contains(p.String(), "order=sort") {
		t.Fatalf("plan %s: want an index plan that sorts", p)
	}
	snap := db.BeginSnapshot()
	defer snap.Commit()
	err = db.Do(func(tx *core.Tx) error {
		for i, o := range owners {
			if err := tx.Update(o, map[string]model.Value{"w": model.Int(int64(100 - i))}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got, want := valsOf(runIn(t, snap, indexed, src)), valsOf(runIn(t, snap, scan, src))
	if got != want || want != `"i0" "i1" "i2" ` {
		t.Fatalf("snapshot after interior re-keying: indexed %s, scan %s", got, want)
	}
	if now := valsOf(runLocked(t, db, indexed, src)); now != `"i9" "i8" "i7" ` {
		t.Fatalf("current answer = %s", now)
	}
}

// valsOf renders a single-column result's values, in order.
func valsOf(res *Result) string {
	var sb strings.Builder
	for _, r := range res.Rows {
		sb.WriteString(r.Values[0].String())
		sb.WriteByte(' ')
	}
	return sb.String()
}

// TestRangeConcurrentIndexReaders is the -race pin for unsynchronised index
// reads, through the query engine: a locked reader ranging over one class
// of a class-hierarchy index while a writer inserts into and re-keys a
// sibling class (class S locks do not cover the shared tree), and a
// snapshot reader (no locks at all) ranging over the class being written.
// The locked reader's class never changes, so its answer may not either;
// the snapshot reader must see its epoch — the values S locks gave while
// the writer was held off.
func TestRangeConcurrentIndexReaders(t *testing.T) {
	w := newRangeWorld(t, true)
	eng := NewEngine(w.db)
	const lockedSrc = "SELECT val FROM ONLY R2 WHERE val >= 3 AND val < 14 ORDER BY val LIMIT 20"
	const snapSrc = "SELECT val FROM R1 WHERE val >= 3 AND val < 14 ORDER BY val LIMIT 20"
	wantLocked := fmt.Sprint(oidsOf(runLocked(t, w.db, eng, lockedSrc)))

	var r1 []model.OID
	for _, o := range w.objs {
		if o.class == "R1" {
			r1 = append(r1, o.oid)
		}
	}
	var gate sync.RWMutex // write side: the writer is between transactions
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			gate.RLock()
			err := w.db.Do(func(tx *core.Tx) error {
				for j := 0; j < 4; j++ {
					oid := r1[(i*4+j)%len(r1)]
					if err := tx.Update(oid, map[string]model.Value{"val": model.Int(int64((i + 5*j) % 20))}); err != nil {
						return err
					}
				}
				if i >= 300 {
					return nil // enough growth: keep re-keying only
				}
				_, err := tx.Insert("R1", map[string]model.Value{
					"tag": model.String(fmt.Sprintf("new-%d", i)), "val": model.Int(int64(i % 20))})
				return err
			})
			gate.RUnlock()
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		for i := 0; i < 100; i++ {
			tx := w.db.Begin()
			res, err := eng.Run(tx, lockedSrc)
			tx.Commit()
			if err != nil {
				t.Error(err)
				return
			}
			if got := fmt.Sprint(oidsOf(res)); got != wantLocked {
				t.Errorf("locked reader pass %d: got %s, want %s", i, got, wantLocked)
				return
			}
		}
	}()
	go func() {
		defer readers.Done()
		for i := 0; i < 30; i++ {
			gate.Lock()
			snap := w.db.BeginSnapshot()
			tx := w.db.Begin()
			ref, err := eng.Run(tx, snapSrc)
			tx.Commit()
			gate.Unlock()
			if err != nil {
				snap.Commit()
				t.Error(err)
				return
			}
			for pass := 0; pass < 2; pass++ {
				res, err := eng.Run(snap, snapSrc)
				if err != nil {
					t.Error(err)
					break
				}
				if got, want := valsOf(res), valsOf(ref); got != want {
					t.Errorf("snapshot reader round %d pass %d: got %s, want %s", i, pass, got, want)
					break
				}
			}
			snap.Commit()
		}
	}()
	readers.Wait()
	close(stop)
	writer.Wait()
}

// TestSelectivityInterval: after ANALYZE the benchmark-shaped statement —
// a 5 % interval, ordered on the indexed attribute, limited — still plans
// an index range, which its rows are then read from index-only, and its
// estimate is the interval's width, not the product of two half-open
// halves.
func TestSelectivityInterval(t *testing.T) {
	_, eng, _ := selDB(t, 4000, 800)
	src := `SELECT n FROM P WHERE n >= 120 AND n < 160 ORDER BY n LIMIT 10`
	analyze(t, eng.db, mustPlan(t, eng, src).Scope...)
	p := mustPlan(t, eng, src)
	if p.kind != accessIndexRng || !strings.Contains(p.String(), "access=index-only(p_n)[120,160) order=index limit=10 est_rows=") {
		t.Fatalf("plan with statistics = %s", p)
	}
	const actual = 200.0 // 40 values x 5 rows each
	if p.EstRows < actual/2 || p.EstRows > actual*2 {
		t.Fatalf("est rows = %.1f, want within 2x of %.0f", p.EstRows, actual)
	}
	// The interval alone (no LIMIT, no usable order) is selective enough
	// too; a wide one still loses to the scan.
	if p = mustPlan(t, eng, `SELECT n FROM P WHERE n >= 120 AND n < 160`); !p.IndexUsed() {
		t.Fatalf("5%% interval should probe: %s", p)
	}
	if p = mustPlan(t, eng, `SELECT n FROM P WHERE n >= 100 AND n < 700`); p.IndexUsed() {
		t.Fatalf("75%% interval should scan: %s", p)
	}
	if p.EstRows < 2500 || p.EstRows > 3500 {
		t.Fatalf("est rows for a 75%% interval = %.1f, want ~3000", p.EstRows)
	}
	// With the order supplied by the index, LIMIT caps what a wide interval
	// costs.
	if p = mustPlan(t, eng, `SELECT n FROM P WHERE n >= 100 AND n < 700 ORDER BY n LIMIT 10`); !p.ordered {
		t.Fatalf("wide interval under ORDER BY n LIMIT 10 should walk the index: %s", p)
	}
	if p = mustPlan(t, eng, `SELECT n FROM P WHERE n >= 100 AND n < 700 ORDER BY n DESC LIMIT 10`); p.IndexUsed() {
		t.Fatalf("DESC cannot stop early, the wide interval should scan: %s", p)
	}
}

// BenchmarkRangeOrderedLimit runs the benchmark-shaped range statement (a
// 5 % interval of a uniform attribute over a 7-class hierarchy, LIMIT 10)
// with the ORDER BY on the indexed attribute and on another one. Beside
// ns/op and allocs/op it reports the objects examined per statement — the
// count of work avoided.
func BenchmarkRangeOrderedLimit(b *testing.B) {
	db, err := core.Open(b.TempDir(), core.Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	root, _ := db.DefineClass("H0", nil,
		schema.AttrSpec{Name: "val", Domain: schema.ClassInteger},
		schema.AttrSpec{Name: "tag", Domain: schema.ClassString})
	classes := []model.ClassID{root.ID}
	for i := 1; i < 7; i++ {
		cl, _ := db.DefineClass(fmt.Sprintf("H%d", i), []model.ClassID{classes[(i-1)/2]})
		classes = append(classes, cl.ID)
	}
	err = db.Do(func(tx *core.Tx) error {
		for i := 0; i < 4200; i++ {
			if _, err := tx.InsertClass(classes[i%7], map[string]model.Value{
				"val": model.Int(int64(i * 7919 % 800)), "tag": model.String(fmt.Sprintf("t%04d", i*31%4200))}); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		err = db.CreateIndex("ch_val", root.ID, []string{"val"}, true)
	}
	if err != nil {
		b.Fatal(err)
	}
	eng := NewEngine(db)
	for _, order := range []string{"val", "tag"} {
		b.Run("orderby="+order, func(b *testing.B) {
			b.ReportAllocs()
			before := mRowsScanned.Value()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := i * 37 % 760
				tx := db.Begin()
				res, err := eng.Run(tx, fmt.Sprintf(
					"SELECT val FROM H0 WHERE val >= %d AND val < %d ORDER BY %s LIMIT 10", a, a+40, order))
				tx.Commit()
				if err != nil || len(res.Rows) != 10 {
					b.Fatalf("rows=%v err=%v", res, err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(mRowsScanned.Value()-before)/float64(b.N), "examined/op")
		})
	}
}
