package oodb_test

// Crash-recovery matrices: each workload is run once under an injector
// that never fires — the census, which enumerates its I/O ops by workload
// phase — then re-run once per selected crash point with the injector
// scripted to crash there: cleanly, mid-write (torn), or behind a lying
// fsync. After each crash the database is reopened without fault injection
// and verified. A crash point is addressed by its phase and its index
// within the phase, so an I/O change in one phase renames only that
// phase's subtests; every failure message prints the fault.Schedule that
// reproduces it.

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"oodb/internal/core"
	"oodb/internal/fault"
	"oodb/internal/fault/harness"
	"oodb/internal/model"
	"oodb/internal/schema"
	"oodb/internal/storage"
)

// matrixSeed seeds the census runs and, with a crash point's key, every
// crash schedule (crashSchedule).
const matrixSeed int64 = 42

const matrixSteps = 48

// everyOp is the per-phase quota of the tests that crash one narrow
// window at every op of it, however many ops it grows to.
const everyOp = math.MaxInt

// crashQuota returns how many crash points TestCrashMatrix takes from each
// workload phase (bounded for CI; override with CRASH_SCHEDULES).
func crashQuota(t *testing.T) int {
	if s := os.Getenv("CRASH_SCHEDULES"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad CRASH_SCHEDULES=%q", s)
		}
		return n
	}
	return 10
}

// crashRun is what a verify function checks: the recovered directory, the
// schedule that crashed it (zero for the census run), its injector, and
// the workload's results from the census run and from this run (partial
// when it crashed).
type crashRun[R any] struct {
	dir         string
	sched       fault.Schedule
	inj         *fault.Injector
	census, got R
}

// crashCensus runs workload once without faults and verifies it, then
// crashes it at up to quota points of each window phase (selectCrashPoints)
// and verifies every recovery. A subtest is named <phase>_<at>_<op>_<style>
// and its seed and style derive from (phase, at) alone. The test's
// historical pins (historicalPins) then run under their own names; a
// selected schedule a pin replays runs only under the pin's.
func crashCensus[R any](t *testing.T, workload func(string, *fault.Injector) (R, error),
	window []string, quota int, styles []fault.Style, verify func(*testing.T, crashRun[R])) {
	t.Helper()
	dir := t.TempDir()
	inj := fault.NewInjector(fault.Schedule{Seed: matrixSeed})
	census, err := workload(dir, inj)
	if err != nil {
		t.Fatalf("census run failed: %v", err)
	}
	verify(t, crashRun[R]{dir: dir, inj: inj, census: census, got: census})
	pins := historicalPins(t, styles)
	pinned := make(map[fault.Schedule]bool)
	for _, c := range pins {
		pinned[fault.Schedule{Seed: c.seed, Phase: c.phase, CrashAt: c.at, Style: c.style}] = true
	}
	ran := make(map[fault.Style]bool)
	for _, p := range selectCrashPoints(t, inj.Census(), window, quota) {
		sched := crashSchedule(p.Phase, p.At, styles)
		ran[sched.Style] = true
		if pinned[sched] {
			continue
		}
		t.Run(fmt.Sprintf("%s_%04d_%s_%s", p.Phase, p.At, p.Op, sched.Style), func(t *testing.T) {
			t.Parallel()
			runCrash(t, sched, workload, census, verify)
		})
	}
	if len(ran) != len(styles) {
		t.Fatalf("the selection runs styles %v of %v", ran, styles)
	}
	runPins(t, inj.Census(), pins, workload, census, verify)
}

// crashPin is a crash point pinned by name: the schedule crashes at op at
// of phase in style, drawing its crash-time fates from seed, and the census
// must have op there.
type crashPin struct {
	name  string
	phase string
	at    int
	op    fault.Op
	style fault.Style
	seed  int64
}

// globalSeed is the seed a crash schedule had when it was addressed by the
// global index i of its op: a pin that keeps it replays that schedule's
// crash-time draws (torn-write prefix, fate of each unsynced page).
func globalSeed(i int) int64 { return matrixSeed*1_000_000 + int64(i) }

// runPins crashes workload at every pin whose op the census pts has at the
// pin's key, and fails naming each pin whose op has moved.
func runPins[R any](t *testing.T, pts []fault.Point, pins []crashPin,
	workload func(string, *fault.Injector) (R, error), census R, verify func(*testing.T, crashRun[R])) {
	t.Helper()
	ops := make(map[string]fault.Op)
	for _, p := range pts {
		ops[fmt.Sprintf("%s/%d", p.Phase, p.At)] = p.Op
	}
	for _, c := range pins {
		if op := ops[fmt.Sprintf("%s/%d", c.phase, c.at)]; op != c.op {
			t.Errorf("pin %s: the census has %q at %s/%d, not %s", c.name, op, c.phase, c.at, c.op)
			continue
		}
		sched := fault.Schedule{Seed: c.seed, Phase: c.phase, CrashAt: c.at, Style: c.style}
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			runCrash(t, sched, workload, census, verify)
		})
	}
}

// historicalPins returns the pins testdata/crash_pins.txt holds for the
// running test: crash points kept under names they had when another op
// stood at them — a global op index, whose seed the pin keeps, or a census
// name <phase>_<at>_<op>_<style>, whose schedule crashSchedule still gives
// (see the file's header).
func historicalPins(t *testing.T, styles []fault.Style) []crashPin {
	t.Helper()
	data, err := os.ReadFile("testdata/crash_pins.txt")
	if err != nil {
		t.Fatal(err)
	}
	var pins []crashPin
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") || f[0] != t.Name() {
			continue
		}
		if len(f) != 6 {
			t.Fatalf("crash_pins.txt: bad line %q", line)
		}
		at, err := strconv.Atoi(f[3])
		if err != nil {
			t.Fatalf("crash_pins.txt: bad line %q", line)
		}
		c := crashPin{name: f[1], phase: f[2], at: at, op: fault.Op(f[4]), style: -1}
		for _, st := range styles {
			if st.String() == f[5] {
				c.style = st
			}
		}
		if c.style < 0 {
			t.Fatalf("crash_pins.txt: %s runs no style %q", t.Name(), f[5])
		}
		var old int
		if _, err := fmt.Sscanf(f[1], "op%d_", &old); err == nil {
			c.seed = globalSeed(old)
		} else if sched := crashSchedule(c.phase, c.at, styles); strings.HasPrefix(f[1], fmt.Sprintf("%s_%04d_", c.phase, c.at)) && sched.Style == c.style {
			c.seed = sched.Seed
		} else {
			t.Fatalf("crash_pins.txt: bad line %q", line)
		}
		pins = append(pins, c)
	}
	return pins
}

// runCrash runs workload under sched, expects the crash to fire, and
// verifies the recovered directory.
func runCrash[R any](t *testing.T, sched fault.Schedule, workload func(string, *fault.Injector) (R, error),
	census R, verify func(*testing.T, crashRun[R])) {
	t.Helper()
	dir := t.TempDir()
	inj := fault.NewInjector(sched)
	got, err := workload(dir, inj)
	if err != nil && !inj.Crashed() {
		t.Fatalf("schedule {%v}: workload error without a crash: %v", sched, err)
	}
	if !inj.Crashed() && !inj.Lied() {
		t.Fatalf("schedule {%v}: crash never fired", sched)
	}
	verify(t, crashRun[R]{dir, sched, inj, census, got})
	// The crashed engine is abandoned, not closed (that is the point);
	// nudge the runtime to reclaim its descriptors between subtests.
	runtime.GC()
}

// crashSchedule is the schedule that crashes at op at of phase. Its seed,
// and its style (one of styles), are functions of that key alone.
func crashSchedule(phase string, at int, styles []fault.Style) fault.Schedule {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", phase, at)
	k := h.Sum64()
	return fault.Schedule{Seed: matrixSeed ^ int64(k>>1), Phase: phase, CrashAt: at, Style: styles[k%uint64(len(styles))]}
}

// selectCrashPoints picks up to quota evenly spaced ops of each window
// phase by their position within that phase alone: a phase with no more
// ops than quota gives all of them, and none hands its unused quota on.
func selectCrashPoints(t *testing.T, pts []fault.Point, window []string, quota int) []fault.Point {
	t.Helper()
	byPhase := make(map[string][]fault.Point)
	for _, p := range pts {
		byPhase[p.Phase] = append(byPhase[p.Phase], p)
	}
	var out []fault.Point
	for _, ph := range window {
		list := byPhase[ph]
		if len(list) == 0 {
			t.Fatalf("census has no ops in phase %q", ph)
		}
		n := min(quota, len(list))
		for j := 0; j < n; j++ {
			out = append(out, list[(2*j+1)*len(list)/(2*n)])
		}
	}
	return out
}

// censusOf runs workload without faults and counts its ops by phase.
func censusOf[R any](t *testing.T, workload func(string, *fault.Injector) (R, error)) map[string]int {
	t.Helper()
	inj := fault.NewInjector(fault.Schedule{Seed: matrixSeed})
	if _, err := workload(t.TempDir(), inj); err != nil {
		t.Fatalf("census run failed: %v", err)
	}
	counts := make(map[string]int)
	for _, p := range inj.Census() {
		counts[p.Phase]++
	}
	return counts
}

// TestCrashCensus pins the I/O op count of every phase of the five census
// workloads. A change to the engine's I/O fails here with the phases it
// moved (close: 32 → 25), not as renamed subtests of the matrices; the
// change updates this table.
func TestCrashCensus(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want map[string]int
	}{
		{"matrix", censusOf(t, matrixWorkload), map[string]int{
			"open": 1, "ddl": 242, "dml": 85, "abort": 15, "group-commit": 141, "checkpoint": 76, "close": 25}},
		{"mvcc", censusOf(t, mvccRun), map[string]int{
			"open": 1, "setup": 23, "stamp": 8, "checkpoint": 24, "close": 24}},
		{"rootswap", censusOf(t, ckptWorkload), map[string]int{
			"open": 1, "setup": 50, "rootswap1": 30, "grow": 33, "rootswap2": 30, "close": 21}},
		{"drop", censusOf(t, dropWorkload), map[string]int{
			"open": 1, "setup": 81, "checkpoint": 37, "drop": 49, "close": 21}},
		{"compaction", censusOf(t, compactWorkload), map[string]int{
			"open": 1, "setup": 54, "shred": 14, "checkpoint": 28, "compact": 64, "close": 24}},
	} {
		var phases []string
		for ph := range c.got {
			phases = append(phases, ph)
		}
		for ph := range c.want {
			if _, ok := c.got[ph]; !ok {
				phases = append(phases, ph)
			}
		}
		sort.Strings(phases)
		for _, ph := range phases {
			if c.got[ph] != c.want[ph] {
				t.Errorf("%s census, %s: %d → %d", c.name, ph, c.want[ph], c.got[ph])
			}
		}
	}
}

// matrixRun is a harness run's result: the reference model it kept and
// the effect of the commit in flight at the crash.
type matrixRun struct {
	m     *harness.Model
	indet *harness.TxnEffect
}

func matrixWorkload(dir string, inj *fault.Injector) (matrixRun, error) {
	m := harness.NewModel()
	res := harness.Run(dir, inj, matrixSeed, matrixSteps, m)
	return matrixRun{m, res.Indet}, res.Err
}

// TestCrashMatrix crashes the harness workload across all of its phases
// and verifies both recovery invariants after every one.
func TestCrashMatrix(t *testing.T) {
	crashCensus(t, matrixWorkload,
		[]string{"open", "ddl", "dml", "abort", "group-commit", "checkpoint", "close"}, crashQuota(t),
		[]fault.Style{fault.StyleClean, fault.StyleTorn, fault.StyleLie}, verifyMatrixCrash)
}

func verifyMatrixCrash(t *testing.T, r crashRun[matrixRun]) {
	t.Helper()
	if r.inj.Lied() {
		// An fsync acknowledged without durability: full model equality is
		// unenforceable (see harness.CheckLied), check the lie contract.
		if err := harness.CheckLied(r.dir, r.got.m); err != nil {
			t.Fatalf("schedule {%v}: lie contract violated: %v", r.sched, err)
		}
		return
	}
	if err := harness.Check(r.dir, r.got.m, r.got.indet); err != nil {
		t.Fatalf("schedule {%v}: recovery invariant violated: %v", r.sched, err)
	}
	// Post-recovery page accounting: recovery may leak pages by design
	// (quarantined chains, amputated pages — freeing them risks double
	// ownership), but the count should be visible, not silent. A run with
	// no crash must account for every page.
	if acct := accountPages(t, r.dir); acct.Leaked > 0 && !r.inj.Crashed() {
		t.Fatalf("run without a crash leaked %d pages: %v", acct.Leaked, acct.LeakedPages)
	} else if acct.Leaked > 0 {
		t.Logf("schedule {%v}: recovery leaked %d of %d pages (deliberate: see AccountPages)", r.sched, acct.Leaked, acct.Total)
	}
}

// accountPages reopens the recovered database without fault injection and
// runs the storage accountant's full-file reachability walk.
func accountPages(t *testing.T, dir string) *storage.PageAccount {
	t.Helper()
	db, err := core.Open(dir, core.Options{})
	if err != nil {
		t.Fatalf("accountant reopen: %v", err)
	}
	defer db.Close()
	acct, err := db.Store.AccountPages()
	if err != nil {
		t.Fatalf("AccountPages: %v", err)
	}
	return acct
}

// TestCrashRegressions replays the crash points at which the harness caught
// real recovery bugs, so the fixes stay fixed. Each is pinned by its key in
// the matrix workload's census and the op found there, and keeps the seed
// of the schedule that caught the bug, so it replays the same crash-time
// draws; a pin whose op has moved fails the test by name, to be re-pinned
// where the bug's op now is.
func TestCrashRegressions(t *testing.T) {
	inj := fault.NewInjector(fault.Schedule{Seed: matrixSeed})
	census, err := matrixWorkload(t.TempDir(), inj)
	if err != nil {
		t.Fatalf("census run failed: %v", err)
	}
	runPins(t, inj.Census(), []crashPin{
		// freeIfOverflow destroyed a committed overflow chain in place
		// before the freeing transaction's undo records were durable: a
		// loser update left the old value unrecoverable. Fixed by forcing
		// the log ahead of every destructive free (BufferPool.FreePage).
		{"undo_durable_before_free_clean", "ddl", 183, fault.OpDiskFree, fault.StyleClean, globalSeed(402)},
		{"undo_durable_before_free_abort", "group-commit", 120, fault.OpDiskFree, fault.StyleClean, globalSeed(451)},
		{"undo_durable_before_free_torn", "dml", 64, fault.OpWALWrite, fault.StyleTorn, globalSeed(459)},
		// A lost overflow write reverted a chain page to a stale but
		// checksum-valid state; the open-time directory rebuild died on it
		// instead of quarantining the record for WAL replay to reinsert.
		// Fixed by Heap.RecoverScan.
		{"stale_overflow_quarantined", "ddl", 124, fault.OpDiskSync, fault.StyleClean, globalSeed(239)},
		{"stale_overflow_quarantined_torn", "ddl", 125, fault.OpDiskAlloc, fault.StyleTorn, globalSeed(240)},
		{"stale_overflow_mid_group_commit", "dml", 52, fault.OpDiskAlloc, fault.StyleTorn, globalSeed(407)},
		// A class created just before a checkpoint crash left its first
		// heap page durable only as its old free-list seal — checksum
		// valid, type free, with a free-list link aimed at a page reused
		// for the catalog blob. The directory rebuild followed the link,
		// adopted the catalog page into the heap chain and quarantined a
		// catalog record. Fixed by type-guarding the chain walk (and
		// amputate no longer frees the cut page — its provenance is
		// unknowable, so freeing risks handing one page to two owners).
		{"stale_chain_walk_adopts_reused_page", "dml", 83, fault.OpDiskAlloc, fault.StyleClean, globalSeed(517)},
		// A lie schedule whose crash op is a disk.free degrades to a clean
		// crash, so the strong checker applies; the failure it caught was
		// replay freeing a chain through a stale heap stub.
		{"lie_degraded_free_crash", "ddl", 209, fault.OpDiskFree, fault.StyleLie, globalSeed(495)},
		// WAL replay freed an overflow chain through a stub read from a
		// reverted page: the chain pages had since been reallocated to
		// another record's chain (same page type — no guard can tell), so
		// the free double-entered them on the free list and a later replay
		// write clobbered the other record's chunk. Fixed by suppressing
		// all stub-driven frees during replay (BufferPool recovery mode);
		// replaced chains leak instead.
		{"replay_free_through_stale_stub", "dml", 24, fault.OpDiskAlloc, fault.StyleTorn, globalSeed(263)},
	}, matrixWorkload, census, verifyMatrixCrash)
}

// TestCrashDifferential is the property-based differential test: random
// op sequences run against the engine and the in-memory model through
// several crash/recover cycles per seed, comparing full state after every
// recovery. Crash points are drawn blindly (they may fall beyond the run,
// which then completes and closes cleanly — also worth checking).
func TestCrashDifferential(t *testing.T) {
	for _, seed := range []int64{101, 202, 303} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			m := harness.NewModel()
			meta := rand.New(rand.NewSource(seed))
			for cycle := 0; cycle < 3; cycle++ {
				// Clean and torn crashes only: a lying fsync voids the
				// durability guarantees this test carries across cycles
				// (lie schedules are exercised by the matrix instead).
				sched := fault.Schedule{
					Seed:    seed + int64(cycle)*1000,
					CrashAt: 1 + meta.Intn(400),
					Style:   fault.Style(meta.Intn(2)),
				}
				inj := fault.NewInjector(sched)
				res := harness.Run(dir, inj, sched.Seed, 30, m)
				if res.Err != nil && !res.Crashed {
					t.Fatalf("cycle %d schedule {%v}: workload error without crash: %v", cycle, sched, res.Err)
				}
				if err := harness.Check(dir, m, res.Indet); err != nil {
					t.Fatalf("cycle %d schedule {%v}: %v", cycle, sched, err)
				}
				runtime.GC()
			}
		})
	}
}

// TestCrashDuringConcurrentGroupCommit crashes while several committers
// share group-commit fsyncs, then verifies every acknowledged commit
// survived. (Not schedule-deterministic — goroutine interleaving decides
// which op hits the crash point — but every acked commit must be durable
// regardless of interleaving.)
func TestCrashDuringConcurrentGroupCommit(t *testing.T) {
	crashConcurrentCommits(t, fault.Schedule{Seed: 7, CrashAt: 600, Style: fault.StyleClean}, 4, 0)
}

// TestCrashConcurrentCommitsRecycleLog is the same crash with a small
// CheckpointBytes and two writers: automatic checkpoints recycle the log
// under the writers, so each crash can land while a generation overwrites
// an older one's frames, and the crash may revert any unsynced write to the
// stale bytes beneath it. Every sync-acknowledged commit must survive.
func TestCrashConcurrentCommitsRecycleLog(t *testing.T) {
	for _, seed := range []int64{3, 11, 29} {
		for _, at := range []int{250, 700, 1500} {
			for _, style := range []fault.Style{fault.StyleClean, fault.StyleTorn} {
				sched := fault.Schedule{Seed: seed, CrashAt: at, Style: style}
				t.Run(fmt.Sprintf("seed%d_at%d_%s", seed, at, style), func(t *testing.T) {
					t.Parallel()
					crashConcurrentCommits(t, sched, 2, 2<<10)
				})
			}
		}
	}
}

// crashConcurrentCommits runs writers committers under sched until the
// crash fires, reopens, and checks every acknowledged commit and its index
// entry. A ckptBytes of 0 keeps the engine's default checkpoint threshold;
// with any other, the log must have been recycled — its file begins with a
// generation header ("kimwalg1") — before the crash.
func crashConcurrentCommits(t *testing.T, sched fault.Schedule, writers int, ckptBytes int64) {
	t.Helper()
	dir := t.TempDir()
	inj := fault.NewInjector(sched)
	db, err := core.Open(dir, core.Options{
		PoolPages:       128,
		CheckpointBytes: ckptBytes,
		WrapDisk:        fault.WrapDisk(inj, dir+"/data.kdb"),
		WrapWAL:         fault.WrapWAL(inj),
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	cl, err := db.DefineClass("G", nil,
		schema.AttrSpec{Name: "n", Domain: schema.ClassInteger, Default: model.Int(0)})
	if err != nil {
		t.Fatalf("define class: %v", err)
	}
	if err := db.CreateIndex("g_n", cl.ID, []string{"n"}, false); err != nil {
		t.Fatalf("create index: %v", err)
	}

	type acked struct {
		oid model.OID
		n   int64
	}
	results := make(chan []acked, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			var mine []acked
			for i := 0; ; i++ {
				tx := db.Begin()
				n := int64(w*1_000_000 + i)
				oid, err := tx.InsertClass(cl.ID, map[string]model.Value{"n": model.Int(n)})
				if err != nil {
					tx.Abort()
					break
				}
				if err := tx.Commit(); err != nil {
					break
				}
				mine = append(mine, acked{oid, n})
			}
			results <- mine
		}(w)
	}
	var all []acked
	for w := 0; w < writers; w++ {
		all = append(all, <-results...)
	}
	if !inj.Crashed() {
		t.Fatalf("workers stopped before the crash fired (schedule {%v})", sched)
	}
	if ckptBytes != 0 {
		if data, _ := os.ReadFile(dir + "/log.wal"); !bytes.HasPrefix(data, []byte("kimwalg1")) {
			t.Fatalf("schedule {%v}: no checkpoint recycled the log before the crash", sched)
		}
	}

	db2, err := core.Open(dir, core.Options{})
	if err != nil {
		t.Fatalf("recovery reopen after {%v}: %v", sched, err)
	}
	defer db2.Close()
	idx, err := db2.Indexes.Get("g_n")
	if err != nil {
		t.Fatalf("index g_n missing after recovery: %v", err)
	}
	for _, a := range all {
		obj, err := db2.Fetch(a.oid)
		if err != nil {
			t.Fatalf("acked commit lost: object %s (n=%d): %v (schedule {%v})", a.oid, a.n, err, sched)
		}
		v, err := db2.AttrValue(obj, "n")
		if err != nil {
			t.Fatalf("attr n of %s: %v", a.oid, err)
		}
		if got, _ := v.AsInt(); got != a.n {
			t.Fatalf("object %s: n=%d want %d", a.oid, got, a.n)
		}
		found := false
		for _, hit := range idx.Lookup(model.Int(a.n), nil) {
			if hit == a.oid {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("index g_n lost acked entry %d -> %s", a.n, a.oid)
		}
	}
	t.Logf("%d acked commits all durable across crash", len(all))
}

// dropWorkload is the deterministic workload behind TestCrashDuringDropClass:
// two classes with committed data (including multi-KB rows that spill to
// overflow chains) and an index on the doomed class, a checkpoint, then
// DropClass. Every run issues the identical I/O sequence, so a census
// enumerates exactly the ops a scheduled crash run will hit.
func dropWorkload(dir string, inj *fault.Injector) (r dropRows, err error) {
	inj.SetPhase("open")
	db, err := core.Open(dir, core.Options{
		PoolPages: 64,
		WrapDisk:  fault.WrapDisk(inj, dir+"/data.kdb"),
		WrapWAL:   fault.WrapWAL(inj),
	})
	if err != nil {
		return r, err
	}
	inj.SetPhase("setup")
	attrs := []schema.AttrSpec{
		{Name: "n", Domain: schema.ClassInteger, Default: model.Int(0)},
		{Name: "s", Domain: schema.ClassString, Default: model.String("")},
	}
	clKeep, err := db.DefineClass("Keep", nil, attrs...)
	if err != nil {
		return r, err
	}
	clDoomed, err := db.DefineClass("Doomed", nil, attrs...)
	if err != nil {
		return r, err
	}
	if err := db.CreateIndex("doomed_n", clDoomed.ID, []string{"n"}, false); err != nil {
		return r, err
	}
	big := make([]byte, 6000)
	for i := range big {
		big[i] = byte('a' + i%26)
	}
	err = db.Do(func(tx *core.Tx) error {
		for i := 0; i < 12; i++ {
			s := fmt.Sprintf("row%d", i)
			if i%4 == 0 {
				s += string(big) // overflow chain: the drop must free these too
			}
			ko, err := tx.InsertClass(clKeep.ID, map[string]model.Value{
				"n": model.Int(int64(i)), "s": model.String(s)})
			if err != nil {
				return err
			}
			do, err := tx.InsertClass(clDoomed.ID, map[string]model.Value{
				"n": model.Int(int64(i)), "s": model.String(s)})
			if err != nil {
				return err
			}
			r.keep = append(r.keep, ko)
			r.doomed = append(r.doomed, do)
		}
		return nil
	})
	if err != nil {
		return r, err
	}
	inj.SetPhase("checkpoint")
	if err := db.Checkpoint(); err != nil {
		return r, err
	}
	inj.SetPhase("drop")
	if err := db.DropClass(clDoomed.ID); err != nil {
		return r, err
	}
	inj.SetPhase("close")
	return r, db.Close()
}

// TestCrashDuringDropClass crashes at every I/O op inside the DropClass
// window and verifies the WAL-before-data ordering of the detach/checkpoint/
// free sequence: the surviving class is always fully intact, and the dropped
// class is all-or-nothing — either still present with every committed row
// readable (drop not yet durable) or gone entirely (never half-dropped with
// its pages already freed). This is the regression net for freeing the
// heap pages before the DDL checkpoint is durable: a crash in that window
// loses rows while the durable metadata still names the class, which
// surfaces here as a doomed row neither intact nor gone.
func TestCrashDuringDropClass(t *testing.T) {
	crashCensus(t, dropWorkload, []string{"drop"}, everyOp,
		[]fault.Style{fault.StyleClean, fault.StyleTorn}, verifyDropCrash)
}

// dropRows are the rows dropWorkload committed to the surviving class and
// to the dropped one.
type dropRows struct{ keep, doomed []model.OID }

func verifyDropCrash(t *testing.T, r crashRun[dropRows]) {
	t.Helper()
	dir, sched, keep, doomed := r.dir, r.sched, r.census.keep, r.census.doomed
	db, err := core.Open(dir, core.Options{})
	if err != nil {
		t.Fatalf("recovery reopen after {%v}: %v", sched, err)
	}
	// The surviving class must be fully intact: its rows committed before
	// the checkpoint, so no crash inside the drop window may touch them.
	for i, oid := range keep {
		obj, err := db.Fetch(oid)
		if err != nil {
			db.Close()
			t.Fatalf("schedule {%v}: surviving row %s lost: %v", sched, oid, err)
		}
		v, err := db.AttrValue(obj, "n")
		if err != nil {
			db.Close()
			t.Fatalf("schedule {%v}: surviving row %s attr n: %v", sched, oid, err)
		}
		if got, _ := v.AsInt(); got != int64(i) {
			db.Close()
			t.Fatalf("schedule {%v}: surviving row %s: n=%d want %d", sched, oid, got, i)
		}
		sv, err := db.AttrValue(obj, "s")
		if err != nil {
			db.Close()
			t.Fatalf("schedule {%v}: surviving row %s attr s: %v", sched, oid, err)
		}
		want := fmt.Sprintf("row%d", i)
		if s, _ := sv.AsString(); len(s) < len(want) || s[:len(want)] != want {
			db.Close()
			t.Fatalf("schedule {%v}: surviving row %s: s=%.20q want prefix %q", sched, oid, s, want)
		}
	}
	// The dropped class: while the catalog still names it, every committed
	// row must be fully intact — this is the regression net for freeing
	// the heap pages BEFORE the DDL checkpoint is durable, which loses rows
	// the durable metadata still names. Once the catalog has dropped the class, its rows must be gone
	// entirely: the checkpoint swaps catalog and segment table under a
	// single metadata write (BufferPool.SwapBlobs), so the old window where
	// a crash between the two blob swaps left readable orphans no longer
	// exists.
	if _, err := db.Catalog.ClassByName("Doomed"); err == nil {
		for i, oid := range doomed {
			obj, err := db.Fetch(oid)
			if err != nil {
				db.Close()
				t.Fatalf("schedule {%v}: drop not durable but row %s lost: %v", sched, oid, err)
			}
			v, err := db.AttrValue(obj, "n")
			if err != nil {
				db.Close()
				t.Fatalf("schedule {%v}: doomed row %s attr n: %v", sched, oid, err)
			}
			if got, _ := v.AsInt(); got != int64(i) {
				db.Close()
				t.Fatalf("schedule {%v}: doomed row %s: n=%d want %d", sched, oid, got, i)
			}
		}
	} else {
		for _, oid := range doomed {
			if _, err := db.Fetch(oid); err == nil {
				db.Close()
				t.Fatalf("schedule {%v}: class Doomed dropped but row %s still readable (catalog and segment table must swap atomically)", sched, oid)
			}
		}
	}
	if err := db.Close(); err != nil {
		t.Fatalf("schedule {%v}: close after verification: %v", sched, err)
	}
	// A crash between the drop's checkpoint and its frees leaks the doomed
	// segment's pages by design; make the count visible.
	if acct := accountPages(t, dir); acct.Leaked > 0 {
		t.Logf("schedule {%v}: drop crash leaked %d of %d pages (deliberate: freed only after the checkpoint)", sched, acct.Leaked, acct.Total)
	}
}

// compactWorkload is the deterministic workload behind
// TestCrashDuringCompaction: one class filled with committed rows (some
// spilling to overflow chains), two thirds deleted to fragment the
// segment, a checkpoint, then an online compaction. Returns the OIDs that
// must survive and the ones that must stay deleted.
func compactWorkload(dir string, inj *fault.Injector) (r compactRows, err error) {
	inj.SetPhase("open")
	db, err := core.Open(dir, core.Options{
		PoolPages: 64,
		WrapDisk:  fault.WrapDisk(inj, dir+"/data.kdb"),
		WrapWAL:   fault.WrapWAL(inj),
	})
	if err != nil {
		return r, err
	}
	inj.SetPhase("setup")
	cl, err := db.DefineClass("C", nil,
		schema.AttrSpec{Name: "n", Domain: schema.ClassInteger, Default: model.Int(0)},
		schema.AttrSpec{Name: "s", Domain: schema.ClassString, Default: model.String("")})
	if err != nil {
		return r, err
	}
	if err := db.CreateIndex("c_n", cl.ID, []string{"n"}, false); err != nil {
		return r, err
	}
	big := make([]byte, 6000)
	for i := range big {
		big[i] = byte('a' + i%26)
	}
	var all []model.OID
	err = db.Do(func(tx *core.Tx) error {
		for i := 0; i < 18; i++ {
			s := fmt.Sprintf("row%d", i)
			if i%4 == 0 {
				s += string(big) // overflow chain: must survive the rewrite
			}
			oid, err := tx.InsertClass(cl.ID, map[string]model.Value{
				"n": model.Int(int64(i)), "s": model.String(s)})
			if err != nil {
				return err
			}
			all = append(all, oid)
		}
		return nil
	})
	if err != nil {
		return r, err
	}
	inj.SetPhase("shred")
	err = db.Do(func(tx *core.Tx) error {
		for i, oid := range all {
			if i%3 == 0 {
				continue // survivor
			}
			if err := tx.Delete(oid); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return r, err
	}
	for i, oid := range all {
		if i%3 == 0 {
			r.kept = append(r.kept, oid)
		} else {
			r.deleted = append(r.deleted, oid)
		}
	}
	inj.SetPhase("checkpoint")
	if err := db.Checkpoint(); err != nil {
		return r, err
	}
	inj.SetPhase("compact")
	if _, err := db.CompactClass(cl.ID); err != nil {
		return r, err
	}
	inj.SetPhase("close")
	return r, db.Close()
}

// TestCrashDuringCompaction crashes at every I/O op inside the online
// compaction window — the WAL marker, the fresh-chain writes, the segment
// table swap inside the DDL checkpoint, and the old-chain frees — and
// verifies the rewrite's crash contract: no committed row is ever lost, no
// deleted row resurfaces, and no page is freed twice (the fresh chain
// before the checkpoint and the old chain after it may leak, which the
// reclaimer then drives to zero).
func TestCrashDuringCompaction(t *testing.T) {
	crashCensus(t, compactWorkload, []string{"compact"}, everyOp,
		[]fault.Style{fault.StyleClean, fault.StyleTorn}, verifyCompactCrash)
}

// compactRows are the rows compactWorkload kept and the ones it deleted.
type compactRows struct{ kept, deleted []model.OID }

func verifyCompactCrash(t *testing.T, r crashRun[compactRows]) {
	t.Helper()
	dir, sched, kept, deleted := r.dir, r.sched, r.census.kept, r.census.deleted
	db, err := core.Open(dir, core.Options{})
	if err != nil {
		t.Fatalf("recovery reopen after {%v}: %v", sched, err)
	}
	checkRows := func(label string) {
		for _, oid := range kept {
			i := int(oid.Seq() - 1) // OIDs were minted in insertion order
			obj, err := db.Fetch(oid)
			if err != nil {
				db.Close()
				t.Fatalf("schedule {%v}: %s: committed row %s lost across compaction crash: %v", sched, label, oid, err)
			}
			v, _ := db.AttrValue(obj, "n")
			if got, _ := v.AsInt(); got != int64(i) {
				db.Close()
				t.Fatalf("schedule {%v}: %s: row %s: n=%d want %d", sched, label, oid, got, i)
			}
			sv, _ := db.AttrValue(obj, "s")
			want := fmt.Sprintf("row%d", i)
			if s, _ := sv.AsString(); len(s) < len(want) || s[:len(want)] != want {
				db.Close()
				t.Fatalf("schedule {%v}: %s: row %s: s=%.20q want prefix %q", sched, label, oid, s, want)
			}
		}
		for _, oid := range deleted {
			if _, err := db.Fetch(oid); err == nil {
				db.Close()
				t.Fatalf("schedule {%v}: %s: deleted row %s resurrected by compaction crash", sched, label, oid)
			}
		}
	}
	checkRows("after recovery")

	// Double-free detector: if any live page was freed (or one page handed
	// to two owners), new allocations will clobber it. Write fresh rows —
	// overflow-sized, to grab several pages — checkpoint, and re-verify.
	cl, err := db.Catalog.ClassByName("C")
	if err != nil {
		db.Close()
		t.Fatalf("schedule {%v}: class C missing after recovery: %v", sched, err)
	}
	big := make([]byte, 6000)
	for i := range big {
		big[i] = byte('z' - i%26)
	}
	var fresh []model.OID
	err = db.Do(func(tx *core.Tx) error {
		for i := 0; i < 8; i++ {
			oid, err := tx.InsertClass(cl.ID, map[string]model.Value{
				"n": model.Int(int64(1000 + i)), "s": model.String(string(big))})
			if err != nil {
				return err
			}
			fresh = append(fresh, oid)
		}
		return nil
	})
	if err != nil {
		db.Close()
		t.Fatalf("schedule {%v}: insert exercise after recovery: %v", sched, err)
	}
	if err := db.Checkpoint(); err != nil {
		db.Close()
		t.Fatalf("schedule {%v}: checkpoint after insert exercise: %v", sched, err)
	}
	checkRows("after insert exercise")

	// The reclaimer sweeps whatever chain the crash leaked (fresh pages
	// before the checkpoint, old pages after) without touching live data.
	if _, err := db.ReclaimLeaked(0); err != nil {
		db.Close()
		t.Fatalf("schedule {%v}: reclaim after recovery: %v", sched, err)
	}
	acct, err := db.Store.AccountPages()
	if err != nil {
		db.Close()
		t.Fatalf("schedule {%v}: account after reclaim: %v", sched, err)
	}
	if acct.Leaked != 0 {
		db.Close()
		t.Fatalf("schedule {%v}: %d pages still leaked after reclaim: %v", sched, acct.Leaked, acct.LeakedPages)
	}
	checkRows("after reclaim")
	for _, oid := range fresh {
		if _, err := db.Fetch(oid); err != nil {
			db.Close()
			t.Fatalf("schedule {%v}: exercise row %s lost after reclaim: %v", sched, oid, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatalf("schedule {%v}: close after verification: %v", sched, err)
	}
}

// ckptWorkload is the deterministic workload behind
// TestCrashCheckpointRootSwap: committed data across two classes and an
// index, then two explicit checkpoints — each of which rewrites all four
// system blobs (catalog, segment table, index table, statistics) and
// publishes them with the single atomic root swap (DiskManager.SetRoots).
func ckptWorkload(dir string, inj *fault.Injector) (r ckptRows, err error) {
	inj.SetPhase("open")
	db, err := core.Open(dir, core.Options{
		PoolPages: 64,
		WrapDisk:  fault.WrapDisk(inj, dir+"/data.kdb"),
		WrapWAL:   fault.WrapWAL(inj),
	})
	if err != nil {
		return r, err
	}
	inj.SetPhase("setup")
	attrs := []schema.AttrSpec{
		{Name: "n", Domain: schema.ClassInteger, Default: model.Int(0)},
		{Name: "s", Domain: schema.ClassString, Default: model.String("")},
	}
	clA, err := db.DefineClass("A", nil, attrs...)
	if err != nil {
		return r, err
	}
	if err := db.CreateIndex("a_n", clA.ID, []string{"n"}, false); err != nil {
		return r, err
	}
	big := make([]byte, 6000)
	for i := range big {
		big[i] = byte('a' + i%26)
	}
	insert := func(cl model.ClassID, base int) ([]model.OID, error) {
		var out []model.OID
		err := db.Do(func(tx *core.Tx) error {
			for i := 0; i < 10; i++ {
				s := fmt.Sprintf("row%d", base+i)
				if i%4 == 0 {
					s += string(big)
				}
				oid, err := tx.InsertClass(cl, map[string]model.Value{
					"n": model.Int(int64(base + i)), "s": model.String(s)})
				if err != nil {
					return err
				}
				out = append(out, oid)
			}
			return nil
		})
		return out, err
	}
	if r.a, err = insert(clA.ID, 0); err != nil {
		return r, err
	}
	inj.SetPhase("rootswap1")
	if err := db.Checkpoint(); err != nil {
		return r, err
	}
	inj.SetPhase("grow")
	clB, err := db.DefineClass("B", nil, attrs...)
	if err != nil {
		return r, err
	}
	if r.b, err = insert(clB.ID, 100); err != nil {
		return r, err
	}
	inj.SetPhase("rootswap2")
	if err := db.Checkpoint(); err != nil {
		return r, err
	}
	inj.SetPhase("close")
	return r, db.Close()
}

// TestCrashCheckpointRootSwap crashes at every I/O op inside the two
// checkpoint windows and verifies the metadata swap is all-or-nothing:
// after recovery the four system roots name a mutually consistent state —
// every committed row readable with its index intact, no segment owned by
// a class the catalog does not know. Before SetRoots collapsed the
// checkpoint into one metadata write, a crash between the per-root writes
// could publish a new catalog against an old segment table (or vice
// versa); this is the census-enumerated net over that window.
func TestCrashCheckpointRootSwap(t *testing.T) {
	crashCensus(t, ckptWorkload, []string{"rootswap1", "rootswap2"}, everyOp,
		[]fault.Style{fault.StyleClean, fault.StyleTorn}, verifyRootSwapCrash)
}

// ckptRows are the rows ckptWorkload committed to classes A and B.
type ckptRows struct{ a, b []model.OID }

func verifyRootSwapCrash(t *testing.T, r crashRun[ckptRows]) {
	t.Helper()
	dir, sched, rowsA, rowsB := r.dir, r.sched, r.census.a, r.census.b
	db, err := core.Open(dir, core.Options{})
	if err != nil {
		t.Fatalf("recovery reopen after {%v}: %v", sched, err)
	}
	defer db.Close()
	checkClass := func(name string, rows []model.OID, base int) {
		for i, oid := range rows {
			obj, err := db.Fetch(oid)
			if err != nil {
				t.Fatalf("schedule {%v}: class %s row %s lost across checkpoint crash: %v", sched, name, oid, err)
			}
			v, _ := db.AttrValue(obj, "n")
			if got, _ := v.AsInt(); got != int64(base+i) {
				t.Fatalf("schedule {%v}: class %s row %s: n=%d want %d", sched, name, oid, got, base+i)
			}
		}
	}
	// Class A and its index predate both checkpoint windows: always intact.
	checkClass("A", rowsA, 0)
	idx, err := db.Indexes.Get("a_n")
	if err != nil {
		t.Fatalf("schedule {%v}: index a_n missing after recovery: %v", sched, err)
	}
	for i, oid := range rowsA {
		found := false
		for _, hit := range idx.Lookup(model.Int(int64(i)), nil) {
			if hit == oid {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("schedule {%v}: index a_n lost entry %d -> %s", sched, i, oid)
		}
	}
	// Class B exists only in runs that got past its DefineClass; when the
	// catalog names it, every committed row must be readable.
	if _, err := db.Catalog.ClassByName("B"); err == nil {
		checkClass("B", rowsB, 100)
	}
	// Cross-root consistency: every segment the durable segment table names
	// belongs to a class the durable catalog knows. A torn multi-root swap
	// is exactly what would break this.
	for _, classID := range db.Store.Classes() {
		if _, err := db.Catalog.Class(classID); err != nil {
			t.Fatalf("schedule {%v}: segment for class %d has no catalog entry (roots swapped non-atomically)", sched, classID)
		}
	}
}
