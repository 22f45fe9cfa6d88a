// Package maint is the automatic trigger of kimdb's segment compaction:
// the manager an open database runs (oodb.Open starts one) to compact heap
// segments live once they have gone mostly dead (auto.go). Kim §5 calls
// out performance as the open front for OODBs; a database that runs for
// months needs its physical layout maintained while it serves traffic.
//
// The jobs themselves are engine calls, one each, and run on demand from
// there: core.DB.CompactClass (which also refreshes the class's planner
// statistics), AnalyzeClass and ReclaimLeaked. This package decides only
// when to compact, and reports what that cost.
package maint

import (
	"sync"
	"time"

	"oodb/internal/core"
)

// Trigger policy. A Manager starts with these; tests lower them.
const (
	// minOccupancy triggers compaction when a segment's live-byte
	// occupancy falls below it.
	minOccupancy = 0.5
	// minPages exempts smaller segments from compaction — a near-empty
	// two-page segment is not worth a rewrite.
	minPages = 4
)

// Manager compacts one database's sparse segments on its own. Its methods
// are safe for concurrent use.
type Manager struct {
	db *core.DB

	minOccupancy float64
	minPages     int

	mu      sync.Mutex // Start/Stop state
	started bool
	stop    chan struct{}
	done    chan struct{}

	auto autoState
	now  func() time.Time // the clock of the quiet rule; tests inject one
}

// New returns a manager over db. Nothing runs until Start.
func New(db *core.DB) *Manager {
	m := &Manager{db: db, now: time.Now, minOccupancy: minOccupancy, minPages: minPages}
	m.auto.init()
	return m
}

// Start launches automatic compaction: the manager registers for the
// engine's checkpoint events and rewrites segments they report as sparse
// (see auto.go), beginning with a look of its own — a database reopened
// with dead space in it need not wait for its first checkpoint.
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
// finish: from its return the physical layout changes only on demand
// (core.DB.CompactClass). Safe to call multiple times or without Start.
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
