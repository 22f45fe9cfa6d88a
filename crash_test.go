package oodb_test

// Crash-recovery matrix: the harness workload is run once under a census
// injector to enumerate every I/O op it performs, then re-run once per
// selected crash point with the injector scripted to crash there —
// cleanly, mid-write (torn), or behind a lying fsync. After each crash the
// database is reopened without fault injection and checked against the
// reference model. Every failure message prints the fault.Schedule that
// reproduces it; the workload seed is fixed in this file, so
// schedule + seed fully determine the run.

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"testing"

	"oodb/internal/core"
	"oodb/internal/fault"
	"oodb/internal/fault/harness"
	"oodb/internal/model"
	"oodb/internal/schema"
	"oodb/internal/storage"
)

// matrixSeed drives both the matrix workload and (by derivation) its crash
// schedules. Changing it changes every schedule; failures always print the
// derived schedule, which together with this constant reproduces the run.
const matrixSeed int64 = 42

const matrixSteps = 48

// crashScheduleCount returns how many crash points to run (bounded for CI;
// override with CRASH_SCHEDULES).
func crashScheduleCount(t *testing.T) int {
	if s := os.Getenv("CRASH_SCHEDULES"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad CRASH_SCHEDULES=%q", s)
		}
		return n
	}
	return 60
}

// censusPoints runs the workload once with a never-firing injector and
// returns every I/O op it performed, tagged with the workload phase.
func censusPoints(t *testing.T) []fault.Point {
	t.Helper()
	dir := t.TempDir()
	inj := fault.NewCensus(matrixSeed)
	m := harness.NewModel()
	res := harness.Run(dir, inj, matrixSeed, matrixSteps, m)
	if res.Err != nil {
		t.Fatalf("census run failed: %v", res.Err)
	}
	if err := harness.Check(dir, m, nil); err != nil {
		t.Fatalf("census run (no faults) fails its own invariants: %v", err)
	}
	// A run with no faults must account for every page: anything leaked
	// here is a genuine space bug, not a deliberate recovery trade-off.
	acct := accountPages(t, dir)
	if acct.Leaked != 0 {
		t.Fatalf("census run (no faults) leaked %d pages: %v", acct.Leaked, acct.LeakedPages)
	}
	return inj.Census()
}

// selectCrashPoints spreads n crash points across the workload phases:
// every phase contributes evenly spaced points, so commit, group-commit,
// checkpoint and DDL paths are all crashed even when one phase dominates
// the op count.
func selectCrashPoints(pts []fault.Point, n int) []fault.Point {
	byPhase := make(map[string][]fault.Point)
	for _, p := range pts {
		byPhase[p.Phase] = append(byPhase[p.Phase], p)
	}
	phases := make([]string, 0, len(byPhase))
	for ph := range byPhase {
		phases = append(phases, ph)
	}
	sort.Strings(phases)

	picked := make(map[int]bool)
	var out []fault.Point
	for round := 0; len(out) < n && round < len(pts); round++ {
		for _, ph := range phases {
			if len(out) >= n {
				break
			}
			list := byPhase[ph]
			// Evenly spaced position for this round within the phase list.
			k := (round*2049 + 1025) % len(list) // deterministic low-discrepancy walk
			p := list[k]
			if picked[p.Index] {
				// Linear probe to the next unpicked point of the phase.
				for i := 0; i < len(list); i++ {
					q := list[(k+i)%len(list)]
					if !picked[q.Index] {
						p = q
						break
					}
				}
				if picked[p.Index] {
					continue // phase exhausted
				}
			}
			picked[p.Index] = true
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// TestCrashMatrix enumerates crash points across the workload and verifies
// both recovery invariants after every one.
func TestCrashMatrix(t *testing.T) {
	pts := censusPoints(t)
	if len(pts) < 50 {
		t.Fatalf("workload exposes only %d crash points; need >= 50", len(pts))
	}
	phaseSeen := make(map[string]bool)
	for _, p := range pts {
		phaseSeen[p.Phase] = true
	}
	for _, required := range []string{"dml", "group-commit", "checkpoint", "ddl"} {
		if !phaseSeen[required] {
			t.Fatalf("census has no crash points in required phase %q", required)
		}
	}

	n := crashScheduleCount(t)
	selected := selectCrashPoints(pts, n)
	t.Logf("census: %d I/O ops; crashing at %d of them", len(pts), len(selected))

	for i, p := range selected {
		sched := fault.Schedule{
			Seed:    matrixSeed*1_000_000 + int64(p.Index),
			CrashAt: p.Index,
			Style:   fault.Style(i % 3),
		}
		name := fmt.Sprintf("op%04d_%s_%s_%s", p.Index, p.Op, p.Phase, sched.Style)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			runSchedule(t, sched)
		})
	}
}

// runSchedule executes one crash/recover/check cycle and reports failures
// with the reproducing schedule.
func runSchedule(t *testing.T, sched fault.Schedule) {
	t.Helper()
	dir := t.TempDir()
	m := harness.NewModel()
	inj := fault.NewInjector(sched)
	res := harness.Run(dir, inj, matrixSeed, matrixSteps, m)
	if res.Err != nil && !res.Crashed {
		t.Fatalf("schedule {%v}: workload error without a crash: %v", sched, res.Err)
	}
	if inj.Lied() {
		// An fsync acknowledged without durability: full model equality is
		// unenforceable (see harness.CheckLied), check the lie contract.
		if err := harness.CheckLied(dir, m); err != nil {
			t.Fatalf("schedule {%v}: lie contract violated: %v\nreproduce: the schedule is derived from matrixSeed=%d and CrashAt=%d in crash_test.go", sched, err, matrixSeed, sched.CrashAt)
		}
		runtime.GC()
		return
	}
	if err := harness.Check(dir, m, res.Indet); err != nil {
		t.Fatalf("schedule {%v}: recovery invariant violated: %v\nreproduce: the schedule is derived from matrixSeed=%d and CrashAt=%d in crash_test.go", sched, err, matrixSeed, sched.CrashAt)
	}
	// Post-recovery page accounting: recovery may leak pages by design
	// (quarantined chains, amputated pages — freeing them risks double
	// ownership), but the count should be visible, not silent.
	if acct := accountPages(t, dir); acct.Leaked > 0 {
		t.Logf("schedule {%v}: recovery leaked %d of %d pages (deliberate: see AccountPages)", sched, acct.Leaked, acct.Total)
	}
	// The crashed engine is abandoned, not closed (that is the point);
	// nudge the runtime to reclaim its descriptors between subtests.
	runtime.GC()
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

// TestCrashRegressions replays the exact schedules under which the harness
// caught real recovery bugs, so the fixes stay fixed. Each schedule is
// relative to the matrix workload (matrixSeed/matrixSteps); if the
// workload's I/O sequence ever changes these crash elsewhere, which is
// still a valid (if different) crash test.
func TestCrashRegressions(t *testing.T) {
	cases := []struct {
		name  string
		sched fault.Schedule
	}{
		// freeIfOverflow destroyed a committed overflow chain in place
		// before the freeing transaction's undo records were durable: a
		// loser update left the old value unrecoverable. Fixed by forcing
		// the log ahead of every destructive free (BufferPool.FreePage).
		{"undo_durable_before_free_clean", fault.Schedule{Seed: matrixSeed*1_000_000 + 402, CrashAt: 402, Style: fault.StyleClean}},
		{"undo_durable_before_free_abort", fault.Schedule{Seed: matrixSeed*1_000_000 + 451, CrashAt: 451, Style: fault.StyleClean}},
		{"undo_durable_before_free_torn", fault.Schedule{Seed: matrixSeed*1_000_000 + 459, CrashAt: 459, Style: fault.StyleTorn}},
		// A lost overflow write reverted a chain page to a stale but
		// checksum-valid state; the open-time directory rebuild died on it
		// instead of quarantining the record for WAL replay to reinsert.
		// Fixed by Heap.RecoverScan.
		{"stale_overflow_quarantined", fault.Schedule{Seed: matrixSeed*1_000_000 + 239, CrashAt: 239, Style: fault.StyleClean}},
		{"stale_overflow_quarantined_torn", fault.Schedule{Seed: matrixSeed*1_000_000 + 240, CrashAt: 240, Style: fault.StyleTorn}},
		{"stale_overflow_mid_group_commit", fault.Schedule{Seed: matrixSeed*1_000_000 + 407, CrashAt: 407, Style: fault.StyleTorn}},
		// A class created just before a checkpoint crash left its first
		// heap page durable only as its old free-list seal — checksum
		// valid, type free, with a free-list link aimed at a page reused
		// for the catalog blob. The directory rebuild followed the link,
		// adopted the catalog page into the heap chain and quarantined a
		// catalog record. Fixed by type-guarding the chain walk (and
		// amputate no longer frees the cut page — its provenance is
		// unknowable, so freeing risks handing one page to two owners).
		{"stale_chain_walk_adopts_reused_page", fault.Schedule{Seed: matrixSeed*1_000_000 + 517, CrashAt: 517, Style: fault.StyleClean}},
		// A lie schedule whose crash op is a disk.free degrades to a clean
		// crash, so the strong checker applies; the failure it caught was
		// replay freeing a chain through a stale heap stub.
		{"lie_degraded_free_crash", fault.Schedule{Seed: matrixSeed*1_000_000 + 495, CrashAt: 495, Style: fault.StyleLie}},
		// WAL replay freed an overflow chain through a stub read from a
		// reverted page: the chain pages had since been reallocated to
		// another record's chain (same page type — no guard can tell), so
		// the free double-entered them on the free list and a later replay
		// write clobbered the other record's chunk. Fixed by suppressing
		// all stub-driven frees during replay (BufferPool recovery mode);
		// replaced chains leak instead.
		{"replay_free_through_stale_stub", fault.Schedule{Seed: matrixSeed*1_000_000 + 263, CrashAt: 263, Style: fault.StyleTorn}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			runSchedule(t, c.sched)
		})
	}
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
	dir := t.TempDir()
	sched := fault.Schedule{Seed: 7, CrashAt: 600, Style: fault.StyleClean}
	inj := fault.NewInjector(sched)
	db, err := core.Open(dir, core.Options{
		PoolPages: 128,
		WrapDisk:  fault.WrapDisk(inj, dir+"/data.kdb"),
		WrapWAL:   fault.WrapWAL(inj),
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
	results := make(chan []acked, 4)
	for w := 0; w < 4; w++ {
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
	for w := 0; w < 4; w++ {
		all = append(all, <-results...)
	}
	if !inj.Crashed() {
		t.Fatalf("workers stopped before the crash fired (schedule {%v})", sched)
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
		obj, err := db2.FetchObject(a.oid)
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
func dropWorkload(dir string, inj *fault.Injector) (keep, doomed []model.OID, err error) {
	inj.SetPhase("open")
	db, err := core.Open(dir, core.Options{
		PoolPages: 64,
		WrapDisk:  fault.WrapDisk(inj, dir+"/data.kdb"),
		WrapWAL:   fault.WrapWAL(inj),
	})
	if err != nil {
		return nil, nil, err
	}
	inj.SetPhase("setup")
	attrs := []schema.AttrSpec{
		{Name: "n", Domain: schema.ClassInteger, Default: model.Int(0)},
		{Name: "s", Domain: schema.ClassString, Default: model.String("")},
	}
	clKeep, err := db.DefineClass("Keep", nil, attrs...)
	if err != nil {
		return nil, nil, err
	}
	clDoomed, err := db.DefineClass("Doomed", nil, attrs...)
	if err != nil {
		return nil, nil, err
	}
	if err := db.CreateIndex("doomed_n", clDoomed.ID, []string{"n"}, false); err != nil {
		return nil, nil, err
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
			keep = append(keep, ko)
			doomed = append(doomed, do)
		}
		return nil
	})
	if err != nil {
		return keep, doomed, err
	}
	inj.SetPhase("checkpoint")
	if err := db.Checkpoint(); err != nil {
		return keep, doomed, err
	}
	inj.SetPhase("drop")
	if err := db.DropClass(clDoomed.ID); err != nil {
		return keep, doomed, err
	}
	inj.SetPhase("close")
	return keep, doomed, db.Close()
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
	cdir := t.TempDir()
	cinj := fault.NewCensus(matrixSeed)
	keep, doomed, err := dropWorkload(cdir, cinj)
	if err != nil {
		t.Fatalf("census drop workload failed: %v", err)
	}
	var window []fault.Point
	for _, p := range cinj.Census() {
		if p.Phase == "drop" {
			window = append(window, p)
		}
	}
	if len(window) < 5 {
		t.Fatalf("drop window exposes only %d I/O ops; the test is vacuous", len(window))
	}
	// Crash at every op in the window (evenly sampled if it is very wide),
	// alternating clean and torn styles.
	step := 1
	if len(window) > 60 {
		step = len(window) / 60
	}
	for i := 0; i < len(window); i += step {
		p := window[i]
		sched := fault.Schedule{
			Seed:    matrixSeed*1_000_000 + int64(p.Index),
			CrashAt: p.Index,
			Style:   fault.Style(i % 2), // clean, torn
		}
		name := fmt.Sprintf("op%04d_%s_%s", p.Index, p.Op, sched.Style)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			inj := fault.NewInjector(sched)
			_, _, err := dropWorkload(dir, inj)
			if err == nil && !inj.Crashed() {
				t.Fatalf("schedule {%v}: crash never fired", sched)
			}
			verifyDropCrash(t, dir, sched, keep, doomed)
		})
	}
}

func verifyDropCrash(t *testing.T, dir string, sched fault.Schedule, keep, doomed []model.OID) {
	t.Helper()
	db, err := core.Open(dir, core.Options{})
	if err != nil {
		t.Fatalf("recovery reopen after {%v}: %v", sched, err)
	}
	// The surviving class must be fully intact: its rows committed before
	// the checkpoint, so no crash inside the drop window may touch them.
	for i, oid := range keep {
		obj, err := db.FetchObject(oid)
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
			obj, err := db.FetchObject(oid)
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
			if _, err := db.FetchObject(oid); err == nil {
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
	runtime.GC()
}

// compactWorkload is the deterministic workload behind
// TestCrashDuringCompaction: one class filled with committed rows (some
// spilling to overflow chains), two thirds deleted to fragment the
// segment, a checkpoint, then an online compaction. Returns the OIDs that
// must survive and the ones that must stay deleted.
func compactWorkload(dir string, inj *fault.Injector) (kept, deleted []model.OID, err error) {
	inj.SetPhase("open")
	db, err := core.Open(dir, core.Options{
		PoolPages: 64,
		WrapDisk:  fault.WrapDisk(inj, dir+"/data.kdb"),
		WrapWAL:   fault.WrapWAL(inj),
	})
	if err != nil {
		return nil, nil, err
	}
	inj.SetPhase("setup")
	cl, err := db.DefineClass("C", nil,
		schema.AttrSpec{Name: "n", Domain: schema.ClassInteger, Default: model.Int(0)},
		schema.AttrSpec{Name: "s", Domain: schema.ClassString, Default: model.String("")})
	if err != nil {
		return nil, nil, err
	}
	if err := db.CreateIndex("c_n", cl.ID, []string{"n"}, false); err != nil {
		return nil, nil, err
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
		return nil, nil, err
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
		return nil, nil, err
	}
	for i, oid := range all {
		if i%3 == 0 {
			kept = append(kept, oid)
		} else {
			deleted = append(deleted, oid)
		}
	}
	inj.SetPhase("checkpoint")
	if err := db.Checkpoint(); err != nil {
		return kept, deleted, err
	}
	inj.SetPhase("compact")
	if _, err := db.CompactClass(cl.ID); err != nil {
		return kept, deleted, err
	}
	inj.SetPhase("close")
	return kept, deleted, db.Close()
}

// TestCrashDuringCompaction crashes at every I/O op inside the online
// compaction window — the WAL marker, the fresh-chain writes, the segment
// table swap inside the DDL checkpoint, and the old-chain frees — and
// verifies the rewrite's crash contract: no committed row is ever lost, no
// deleted row resurfaces, and no page is freed twice (the fresh chain
// before the checkpoint and the old chain after it may leak, which the
// reclaimer then drives to zero).
func TestCrashDuringCompaction(t *testing.T) {
	cdir := t.TempDir()
	cinj := fault.NewCensus(matrixSeed)
	kept, deleted, err := compactWorkload(cdir, cinj)
	if err != nil {
		t.Fatalf("census compact workload failed: %v", err)
	}
	var window []fault.Point
	for _, p := range cinj.Census() {
		if p.Phase == "compact" {
			window = append(window, p)
		}
	}
	if len(window) < 5 {
		t.Fatalf("compact window exposes only %d I/O ops; the test is vacuous", len(window))
	}
	step := 1
	if len(window) > 60 {
		step = len(window) / 60
	}
	for i := 0; i < len(window); i += step {
		p := window[i]
		sched := fault.Schedule{
			Seed:    matrixSeed*1_000_000 + int64(p.Index),
			CrashAt: p.Index,
			Style:   fault.Style(i % 2), // clean, torn
		}
		name := fmt.Sprintf("op%04d_%s_%s", p.Index, p.Op, sched.Style)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			inj := fault.NewInjector(sched)
			_, _, err := compactWorkload(dir, inj)
			if err == nil && !inj.Crashed() {
				t.Fatalf("schedule {%v}: crash never fired", sched)
			}
			verifyCompactCrash(t, dir, sched, kept, deleted)
		})
	}
}

func verifyCompactCrash(t *testing.T, dir string, sched fault.Schedule, kept, deleted []model.OID) {
	t.Helper()
	db, err := core.Open(dir, core.Options{})
	if err != nil {
		t.Fatalf("recovery reopen after {%v}: %v", sched, err)
	}
	checkRows := func(label string) {
		for _, oid := range kept {
			i := int(oid.Seq() - 1) // OIDs were minted in insertion order
			obj, err := db.FetchObject(oid)
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
			if _, err := db.FetchObject(oid); err == nil {
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
		if _, err := db.FetchObject(oid); err != nil {
			db.Close()
			t.Fatalf("schedule {%v}: exercise row %s lost after reclaim: %v", sched, oid, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatalf("schedule {%v}: close after verification: %v", sched, err)
	}
	runtime.GC()
}

// ckptWorkload is the deterministic workload behind
// TestCrashCheckpointRootSwap: committed data across two classes and an
// index, then two explicit checkpoints — each of which rewrites all four
// system blobs (catalog, segment table, index table, statistics) and
// publishes them with the single atomic root swap (DiskManager.SetRoots).
func ckptWorkload(dir string, inj *fault.Injector) (rowsA, rowsB []model.OID, err error) {
	inj.SetPhase("open")
	db, err := core.Open(dir, core.Options{
		PoolPages: 64,
		WrapDisk:  fault.WrapDisk(inj, dir+"/data.kdb"),
		WrapWAL:   fault.WrapWAL(inj),
	})
	if err != nil {
		return nil, nil, err
	}
	inj.SetPhase("setup")
	attrs := []schema.AttrSpec{
		{Name: "n", Domain: schema.ClassInteger, Default: model.Int(0)},
		{Name: "s", Domain: schema.ClassString, Default: model.String("")},
	}
	clA, err := db.DefineClass("A", nil, attrs...)
	if err != nil {
		return nil, nil, err
	}
	if err := db.CreateIndex("a_n", clA.ID, []string{"n"}, false); err != nil {
		return nil, nil, err
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
	if rowsA, err = insert(clA.ID, 0); err != nil {
		return nil, nil, err
	}
	inj.SetPhase("rootswap1")
	if err := db.Checkpoint(); err != nil {
		return rowsA, nil, err
	}
	inj.SetPhase("grow")
	clB, err := db.DefineClass("B", nil, attrs...)
	if err != nil {
		return rowsA, nil, err
	}
	if rowsB, err = insert(clB.ID, 100); err != nil {
		return rowsA, nil, err
	}
	inj.SetPhase("rootswap2")
	if err := db.Checkpoint(); err != nil {
		return rowsA, rowsB, err
	}
	inj.SetPhase("close")
	return rowsA, rowsB, db.Close()
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
	cdir := t.TempDir()
	cinj := fault.NewCensus(matrixSeed)
	rowsA, rowsB, err := ckptWorkload(cdir, cinj)
	if err != nil {
		t.Fatalf("census checkpoint workload failed: %v", err)
	}
	var window []fault.Point
	for _, p := range cinj.Census() {
		if p.Phase == "rootswap1" || p.Phase == "rootswap2" {
			window = append(window, p)
		}
	}
	if len(window) < 5 {
		t.Fatalf("checkpoint windows expose only %d I/O ops; the test is vacuous", len(window))
	}
	step := 1
	if len(window) > 60 {
		step = len(window) / 60
	}
	for i := 0; i < len(window); i += step {
		p := window[i]
		sched := fault.Schedule{
			Seed:    matrixSeed*1_000_000 + int64(p.Index),
			CrashAt: p.Index,
			Style:   fault.Style(i % 2), // clean, torn
		}
		name := fmt.Sprintf("op%04d_%s_%s_%s", p.Index, p.Op, p.Phase, sched.Style)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			inj := fault.NewInjector(sched)
			_, _, err := ckptWorkload(dir, inj)
			if err == nil && !inj.Crashed() {
				t.Fatalf("schedule {%v}: crash never fired", sched)
			}
			verifyRootSwapCrash(t, dir, sched, rowsA, rowsB)
		})
	}
}

func verifyRootSwapCrash(t *testing.T, dir string, sched fault.Schedule, rowsA, rowsB []model.OID) {
	t.Helper()
	db, err := core.Open(dir, core.Options{})
	if err != nil {
		t.Fatalf("recovery reopen after {%v}: %v", sched, err)
	}
	defer db.Close()
	checkClass := func(name string, rows []model.OID, base int) {
		for i, oid := range rows {
			obj, err := db.FetchObject(oid)
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
	runtime.GC()
}
