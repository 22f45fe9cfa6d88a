// Package maint is kimdb's online maintenance subsystem: the manager an
// open database runs (oodb.Open starts one) to compact heap segments live
// once they have gone mostly dead (auto.go), and the on-demand operations —
// a full sweep that also reclaims pages leaked by crashes inside the
// detach→checkpoint→free window, and collection of the per-class
// statistics the query planner's selectivity model consumes
// (internal/stats → internal/query). Kim §5 calls out performance as the
// open front for OODBs; a database that runs for months needs its physical
// layout and its optimizer statistics maintained while it serves traffic —
// this package is that janitor.
//
// All mechanisms live in internal/core (CompactClass, ReclaimLeaked,
// AnalyzeClass) and inherit the crash-safety protocol proven by the fault
// harness; this package supplies only policy, scheduling and metrics.
package maint

import (
	"sync"
	"time"

	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/stats"
	"oodb/internal/storage"
)

// Trigger policy. A Manager starts with these; tests lower them.
const (
	// leakThreshold is the leaked-page count at which a sweep runs the
	// reclaimer: any leak is reclaimed.
	leakThreshold = 1
	// minOccupancy triggers compaction when a segment's live-byte
	// occupancy falls below it.
	minOccupancy = 0.5
	// minPages exempts smaller segments from compaction — a near-empty
	// two-page segment is not worth a rewrite.
	minPages = 4
	// reclaimWait bounds the quiesce window the reclaimer may hold new
	// transaction begins open while in-flight ones drain. Without it, any
	// steady trickle of transactions starves the reclaimer forever and
	// leaked pages accumulate unbounded.
	reclaimWait = 100 * time.Millisecond
)

// Manager runs maintenance for one database. All entry points are safe for
// concurrent use; sweeps and compactions are serialized against each other.
type Manager struct {
	db *core.DB

	leakThreshold uint64
	minOccupancy  float64
	minPages      int
	reclaimWait   time.Duration

	mu      sync.Mutex // serializes sweeps, compactions and Start/Stop state
	started bool
	stop    chan struct{}
	done    chan struct{}

	auto autoState
	now  func() time.Time // the clock of the quiet rule; tests inject one
}

// New returns a manager over db. Nothing runs in the background until
// Start; every operation is also available on demand.
func New(db *core.DB) *Manager {
	m := &Manager{db: db, now: time.Now, leakThreshold: leakThreshold,
		minOccupancy: minOccupancy, minPages: minPages, reclaimWait: reclaimWait}
	m.auto.init()
	return m
}

// SweepReport summarizes one maintenance sweep.
type SweepReport struct {
	Compacted     int  // segments rewritten
	PagesFreed    int  // pages released by compaction (before minus after)
	Reclaimed     int  // leaked pages freed by the reclaimer
	Analyzed      int  // classes whose statistics were refreshed
	VersionChains int  // MVCC chains still live after the vacuum
	Busy          bool // some step yielded to in-flight transactions
}

// Start launches automatic compaction: the manager registers for the
// engine's checkpoint events and rewrites segments they report as sparse
// (see auto.go), beginning with a look of its own — a database reopened
// with dead space in it need not wait for its first checkpoint. There is
// no periodic sweep — RunOnce walks every page of the file and fences
// transaction begins, so it stays an operator's call.
func (m *Manager) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started {
		return
	}
	m.started = true
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	m.db.OnCheckpoint(m.observe)
	m.observe()
	go m.loop(m.stop, m.done)
}

// Stop halts automatic compaction and waits for a rewrite in flight to
// finish: from its return the physical layout changes only on demand.
// Safe to call multiple times or without Start.
func (m *Manager) Stop() {
	m.mu.Lock()
	if !m.started {
		m.mu.Unlock()
		return
	}
	m.started = false
	stop, done := m.stop, m.done
	m.mu.Unlock()
	close(stop)
	<-done
}

// RunOnce performs one full sweep: account pages, reclaim leaks past the
// threshold, compact every fragmented segment (collecting statistics in
// the same pass), and persist what changed.
func (m *Manager) RunOnce() (SweepReport, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mSweepRuns.Add(1)
	t0 := time.Now()
	defer func() { mSweepNs.Observe(uint64(time.Since(t0))) }()

	var rep SweepReport
	// Version GC first: prune chains no live snapshot can still see, so
	// the sweep's own snapshot reads (AnalyzeClass) start from a small
	// overlay.
	rep.VersionChains = m.db.Versions.Vacuum()
	acct, err := m.db.Store.AccountPages()
	if err != nil {
		return rep, err
	}
	if acct.Leaked >= m.leakThreshold {
		// Bounded quiesce: briefly hold new begins and let in-flight
		// transactions drain. A sweep that still cannot quiesce counts as
		// starved — a run of those is the signal the window is too small
		// for the workload.
		n, err := m.db.ReclaimLeakedWait(m.reclaimWait)
		switch {
		case err == core.ErrBusy:
			rep.Busy = true
			mSweepBusy.Add(1)
			mReclaimStarved.Add(1)
		case err != nil:
			return rep, err
		default:
			rep.Reclaimed = n
			mReclaimPages.Add(uint64(n))
		}
	}
	for _, cl := range m.db.Catalog.Classes() {
		info, err := m.db.SegmentInfo(cl.ID)
		if err != nil {
			return rep, err
		}
		if !m.sparse(info) {
			continue
		}
		res, err := m.compact(cl.ID)
		if err != nil {
			return rep, err
		}
		rep.Compacted++
		rep.Analyzed++
		if res.PagesBefore > res.PagesAfter {
			rep.PagesFreed += res.PagesBefore - res.PagesAfter
		}
	}
	if rep.Analyzed > 0 {
		// Compaction's DDL checkpoint ran before the statistics landed in
		// the registry; persist them now so a crash keeps the fresh model.
		if err := m.db.Checkpoint(); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// CompactClass rewrites one class's segment on demand, refreshing its
// statistics in the same sweep.
func (m *Manager) CompactClass(class model.ClassID) (*storage.CompactResult, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.compact(class)
}

// compact rewrites one segment in scan order, collecting its statistics
// in the same pass. Caller holds m.mu.
func (m *Manager) compact(class model.ClassID) (*storage.CompactResult, error) {
	t0 := time.Now()
	col := stats.NewCollector(class)
	res, err := m.db.CompactClass(class, func(oid model.OID, data []byte) {
		if obj, derr := model.DecodeObject(data); derr == nil {
			col.Observe(obj, len(data))
		}
	})
	if err != nil {
		return nil, err
	}
	m.db.Stats.Put(col.Finalize())
	mCompactRuns.Add(1)
	mStatsAnalyzed.Add(1)
	mCompactObjects.Add(uint64(res.LiveRecords))
	if res.PagesBefore > res.PagesAfter {
		mCompactPagesFreed.Add(uint64(res.PagesBefore - res.PagesAfter))
	}
	mCompactNs.Observe(uint64(time.Since(t0)))
	return res, nil
}

// CompactAll rewrites every class segment (the kimsh `.compact` command
// with no argument) and returns per-class results keyed by class id.
func (m *Manager) CompactAll() (map[model.ClassID]*storage.CompactResult, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[model.ClassID]*storage.CompactResult)
	for _, cl := range m.db.Catalog.Classes() {
		info, err := m.db.SegmentInfo(cl.ID)
		if err != nil {
			return out, err
		}
		if info == nil {
			continue
		}
		res, err := m.compact(cl.ID)
		if err != nil {
			return out, err
		}
		out[cl.ID] = res
	}
	if len(out) > 0 {
		if err := m.db.Checkpoint(); err != nil {
			return out, err
		}
	}
	return out, nil
}

// AnalyzeClass refreshes one class's statistics without rewriting its
// segment — the cheap path for healthy segments.
func (m *Manager) AnalyzeClass(class model.ClassID) (*stats.ClassStats, error) {
	col := stats.NewCollector(class)
	err := m.db.AnalyzeClass(class, func(oid model.OID, data []byte) {
		if obj, derr := model.DecodeObject(data); derr == nil {
			col.Observe(obj, len(data))
		}
	})
	if err != nil {
		return nil, err
	}
	cs := col.Finalize()
	m.db.Stats.Put(cs)
	mStatsAnalyzed.Add(1)
	return cs, nil
}

// AnalyzeAll refreshes statistics for every class with a segment and
// persists the registry. Returns the number of classes analyzed.
func (m *Manager) AnalyzeAll() (int, error) {
	n := 0
	for _, cl := range m.db.Catalog.Classes() {
		info, err := m.db.SegmentInfo(cl.ID)
		if err != nil {
			return n, err
		}
		if info == nil {
			continue
		}
		if _, err := m.AnalyzeClass(cl.ID); err != nil {
			return n, err
		}
		n++
	}
	if n > 0 {
		if err := m.db.Checkpoint(); err != nil {
			return n, err
		}
	}
	return n, nil
}

// ReclaimLeaked frees leaked pages on demand, quiescing for up to
// reclaimWait (ErrBusy when transactions outlast the window).
// It takes the sweep mutex: between a compaction's checkpoint and its frees
// the old chain is unnamed but still allocated, and a reclaim running there
// would free it a first time.
func (m *Manager) ReclaimLeaked() (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, err := m.db.ReclaimLeakedWait(m.reclaimWait)
	switch {
	case err == core.ErrBusy:
		mReclaimStarved.Add(1)
	case err == nil:
		mReclaimPages.Add(uint64(n))
	}
	return n, err
}
