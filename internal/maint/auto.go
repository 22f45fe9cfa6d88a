package maint

import (
	"sync"
	"time"

	"oodb/internal/model"
	"oodb/internal/storage"
)

// Automatic compaction. Heap inserts only ever append to a segment's tail,
// so space freed by deletes and relocations is never reused: a bulk load
// followed by a bulk delete leaves the survivors spread over many times the
// pages they need, and every later read pays for the dead space in buffer
// misses. A started manager removes it without being asked:
//
//   - Trigger. After every completed checkpoint the engine calls observe,
//     which reads each segment's O(1) counters and marks the classes under
//     minOccupancy with at least minPages as pending. Nothing polls.
//   - Quiet rule. A pending class is rewritten once its segment has gone
//     quietPeriod without a write (the heap's mutation counter stands
//     still). A load-then-delete is therefore rewritten once, after it has
//     ended, and a write-hot segment is never stalled behind the class
//     write lock the rewrite takes.
//   - Hysteresis. A rewrite that leaves its segment still under
//     minOccupancy (records too small or too awkward to pack) would be
//     signalled again by the very next checkpoint; the occupancy it reached
//     is remembered and the class is left alone until it has fallen to half
//     of that.
//
// Darmont & Gruenwald's condition for automatic reorganisation is that its
// cost is reported beside its gain: the maint_auto_* metrics do that.

// quietPeriod is how long a sparse segment must go unwritten before it is
// rewritten. Long against the gap between two transactions of a bulk load,
// short against the life of the dead space.
const quietPeriod = 500 * time.Millisecond

// watch is one pending class: the mutation count its segment showed when it
// was last looked at, and when to look again.
type watch struct {
	muts uint64
	due  time.Time
}

type autoState struct {
	mu      sync.Mutex
	pending map[model.ClassID]watch
	floor   map[model.ClassID]float64   // hysteresis: occupancy a futile rewrite reached
	last    map[model.ClassID]time.Time // last automatic compaction
	wake    chan struct{}
}

func (a *autoState) init() {
	a.pending = make(map[model.ClassID]watch)
	a.floor = make(map[model.ClassID]float64)
	a.last = make(map[model.ClassID]time.Time)
	a.wake = make(chan struct{}, 1)
}

// sparse is the trigger predicate (a class without a segment has a nil
// info).
func (m *Manager) sparse(info *storage.SegmentInfo) bool {
	return info != nil && info.Pages >= m.minPages && info.Occupancy < m.minOccupancy
}

// observe is the checkpoint hook: an O(classes) pass over counters, on the
// checkpointing goroutine. It takes only the auto mutex (it also runs
// inside a compaction's own checkpoints, on the loop goroutine).
func (m *Manager) observe() {
	now := m.now()
	found := false
	m.auto.mu.Lock()
	for _, class := range m.db.Store.Classes() {
		info := m.db.Store.SegmentInfo(class)
		if !m.sparse(info) {
			continue
		}
		if floor, ok := m.auto.floor[class]; ok && info.Occupancy >= floor/2 {
			mAutoSkipHysteresis.Add(1)
			continue
		}
		m.auto.pending[class] = watch{muts: info.Mutations, due: now.Add(quietPeriod)}
		found = true
	}
	m.auto.mu.Unlock()
	if found {
		select {
		case m.auto.wake <- struct{}{}:
		default:
		}
	}
}

func (m *Manager) loop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		select {
		case <-stop:
			return
		case <-m.auto.wake:
		case <-timer.C:
		}
		if next, ok := m.runDue(m.now()); ok {
			timer.Reset(next.Sub(m.now()))
		}
	}
}

// runDue handles every pending class whose time has come and returns when
// the earliest remaining one falls due. A class is forgotten when its
// segment is no longer sparse, looked at again a quiet period later when it
// was written meanwhile, and rewritten otherwise.
func (m *Manager) runDue(now time.Time) (next time.Time, ok bool) {
	m.auto.mu.Lock()
	var due []model.ClassID
	for class, w := range m.auto.pending {
		if !w.due.After(now) {
			due = append(due, class)
		}
	}
	for _, class := range due {
		w := m.auto.pending[class]
		info := m.db.Store.SegmentInfo(class)
		switch {
		case !m.sparse(info):
			delete(m.auto.pending, class)
		case info.Mutations != w.muts:
			mAutoSkipQuiet.Add(1)
			m.auto.pending[class] = watch{muts: info.Mutations, due: now.Add(quietPeriod)}
		default:
			delete(m.auto.pending, class)
			m.auto.mu.Unlock()
			m.autoCompact(class)
			m.auto.mu.Lock()
		}
	}
	for _, w := range m.auto.pending {
		if !ok || w.due.Before(next) {
			next, ok = w.due, true
		}
	}
	m.auto.mu.Unlock()
	return next, ok
}

// autoCompact rewrites one quiet, sparse segment and books what it cost. A
// failure (the database closing under the manager, a poisoned engine)
// leaves the data as it was; the next checkpoint signals the class again.
func (m *Manager) autoCompact(class model.ClassID) {
	res, err := m.db.CompactClass(class)
	if err != nil {
		mAutoErrors.Add(1)
		return
	}
	mAutoCompactions.Add(1)
	mAutoPagesRewritten.Add(uint64(res.PagesAfter))
	mAutoBytesRewritten.Add(uint64(res.LiveBytes))
	mAutoLockNs.Observe(uint64(res.LockHeld))

	m.auto.mu.Lock()
	defer m.auto.mu.Unlock()
	// The rewrite's own checkpoints signalled while it still held the
	// class: that signal describes the segment it has just replaced.
	delete(m.auto.pending, class)
	m.auto.last[class] = m.now()
	if info := m.db.Store.SegmentInfo(class); m.sparse(info) {
		m.auto.floor[class] = info.Occupancy
	} else {
		delete(m.auto.floor, class)
	}
}

// LastAutoCompaction reports when the manager last rewrote the class's
// segment on its own (zero time, false: never).
func (m *Manager) LastAutoCompaction(class model.ClassID) (time.Time, bool) {
	m.auto.mu.Lock()
	defer m.auto.mu.Unlock()
	t, ok := m.auto.last[class]
	return t, ok
}
