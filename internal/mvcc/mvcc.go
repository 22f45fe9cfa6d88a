// Package mvcc implements kimdb's multi-version concurrency control
// overlay: per-object version chains stamped with a monotonically
// increasing commit epoch, giving read-only transactions a lock-free
// snapshot-consistent view while writers keep strict two-phase locking
// (internal/txn). The paper's §3.2 extends conventional locking to class
// hierarchies; this package removes readers from that lock manager
// entirely — a hierarchy scan under a bulk writer no longer stalls.
//
// Model:
//
//   - Writers are still serialized by X instance locks. Before a writer's
//     first heap write to an object, it records the currently committed
//     heap image as the chain's base version and installs its new image as
//     the chain's pending entry. Commit stamps every pending entry of the
//     transaction with the next commit epoch and only then publishes that
//     epoch; abort discards the pending entries (the heap itself is
//     restored by the transaction's undo chain).
//   - A snapshot is just an epoch: BeginSnapshot pins the current commit
//     epoch. An object version is visible to a snapshot when it is the
//     newest committed version with epoch ≤ the snapshot's. No chain means
//     the heap image is committed truth.
//   - The overlay is volatile. Crash recovery replays the WAL into a
//     fully committed heap, so reopening starts with an empty overlay; the
//     commit epoch itself is persisted in commit records and restored to
//     the maximum seen during replay, keeping epochs monotonic across a
//     crash.
//   - Commit and abort prune the chains they touched: versions older than
//     the newest one the oldest live snapshot can see go, and a chain that
//     has converged with the heap is dropped — at once when no snapshot is
//     live, else when the last live snapshot ends (EndSnapshot). No sweep
//     is needed: every chain is dropped by the call that ends its last use.
//
// The ordering protocol that makes lock-free reads sound: a writer
// installs the chain entry (under the chain's shard lock) before it
// touches the heap, and a reader fetches heap bytes before consulting the
// chain. A reader that observed uncommitted heap bytes therefore always
// finds the chain that shields them (lock ordering makes the writer's
// earlier chain install visible), and resolves the committed base instead.
//
// The protocol has a converse hazard: REMOVING a chain while a reader sits
// between its heap read and its chain lookup un-shields whatever that
// reader fetched — it read a writer's uncommitted bytes, the writer
// aborted (heap restored, chain converged and dropped), and the reader now
// finds no chain and trusts the stale bytes. Chains are therefore only
// dropped when no snapshot is live at all; while snapshots exist, pruning
// trims a chain's version list but keeps the chain installed, and the
// manager remembers it for the EndSnapshot that leaves none live.
//
// Locking is two-level so that readers scale independently of writers:
//
//   - The manager lock guards the epoch, the snapshot registry, the
//     per-writer bookkeeping and the chains kept for live snapshots.
//     Commit holds it across stamping AND epoch publication, so a
//     concurrent BeginSnapshot sees either none or all of a commit's
//     versions. Readers touch it only at snapshot begin/end.
//   - Chains live in shards hashed by OID, each with its own lock. A
//     reader resolving N objects takes N brief shard read-locks that
//     almost never collide with the writer — per-object resolution
//     against a single manager lock would serialize every scan behind a
//     bulk writer's lock traffic (the -mvcc bench pins this ratio).
//
// Nesting order is manager lock → shard lock (Commit, Abort, EndSnapshot);
// record takes them sequentially, never nested.
package mvcc

import (
	"sync"

	"oodb/internal/model"
)

// version is one committed object state. data == nil marks a delete (the
// object is invisible at and after this epoch until re-created).
type version struct {
	epoch uint64
	data  []byte
}

// chain is the version history of one object: an optional uncommitted
// pending entry owned by a single writer (X-lock serialized) above a list
// of committed versions ordered oldest-first (appends are O(1); lookups
// walk from the newest end). The base committed version is stamped
// epoch 0: it predates every snapshot that can still be live when the
// chain is created, because the creating writer saw it as the committed
// heap state.
type chain struct {
	pendingTxn uint64 // owning writer, 0 = none
	pendingDel bool   // pending entry is a delete
	pending    []byte // pending image (nil when pendingDel)
	tombstone  bool   // some version is a delete: the heap record may be gone
	versions   []version
}

// visible returns the newest committed version with epoch ≤ snap.
// ok reports whether the chain has any version that old (it always does
// for snapshots begun after the chain was created; false can only occur
// for epochs older than the prune horizon, which the snapshot registry
// prevents).
func (c *chain) visible(snap uint64) (data []byte, ok bool) {
	for i := len(c.versions) - 1; i >= 0; i-- {
		if c.versions[i].epoch <= snap {
			return c.versions[i].data, true
		}
	}
	return nil, false
}

// chainShards is the number of chain-map shards. A power of two well above
// typical core counts keeps reader/writer shard collisions rare.
const chainShards = 64

// shard holds the chains whose OIDs hash to it. The shard lock guards the
// maps and the contents of every chain in them.
type shard struct {
	mu     sync.RWMutex
	chains map[model.OID]*chain  // OID embeds the class: one flat map
	tombs  map[model.ClassID]int // chains with a delete version, per class
}

// shardOf maps an OID to its shard. Fibonacci hashing spreads the dense
// low-bit sequence numbers OIDs are built from.
func (m *Manager) shardOf(oid model.OID) *shard {
	return &m.shards[(uint64(oid)*0x9E3779B97F4A7C15)>>(64-6)]
}

// Manager is the process-wide MVCC state of one database. All methods are
// safe for concurrent use.
type Manager struct {
	mu    sync.RWMutex           // epoch, snaps, byTxn, held
	epoch uint64                 // last committed epoch
	byTxn map[uint64][]model.OID // pending chains per writer
	snaps map[uint64]int         // live snapshots per epoch
	// held lists the chains a commit or abort would have dropped but for a
	// live snapshot; the EndSnapshot that leaves none live drops them.
	held map[model.OID]struct{}

	shards [chainShards]shard
}

// NewManager returns an empty MVCC overlay at epoch 0.
func NewManager() *Manager {
	m := &Manager{
		byTxn: make(map[uint64][]model.OID),
		snaps: make(map[uint64]int),
	}
	for i := range m.shards {
		m.shards[i].chains = make(map[model.OID]*chain)
		m.shards[i].tombs = make(map[model.ClassID]int)
	}
	return m
}

// Epoch returns the last committed epoch.
func (m *Manager) Epoch() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.epoch
}

// RestoreEpoch raises the commit epoch to at least e — recovery replays
// the maximum epoch found in the WAL's commit records through this, so
// epochs stay monotonic across a crash.
func (m *Manager) RestoreEpoch(e uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e > m.epoch {
		m.epoch = e
	}
}

// BeginSnapshot pins the current commit epoch and registers the snapshot
// as live, shielding every version it can see — and every chain — from
// pruning.
func (m *Manager) BeginSnapshot() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.snaps[m.epoch]++
	return m.epoch
}

// EndSnapshot releases a snapshot pinned by BeginSnapshot. The one that
// leaves no snapshot live drops the chains kept for it (held); it holds the
// manager lock while it does, so no BeginSnapshot can start a reader that
// might already sit between a heap read and its Resolve.
func (m *Manager) EndSnapshot(epoch uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := m.snaps[epoch]; n > 1 {
		m.snaps[epoch] = n - 1
		return
	}
	delete(m.snaps, epoch)
	if len(m.snaps) > 0 {
		return
	}
	// A chain with a writer in flight stays: its commit or abort prunes it.
	for oid := range m.held {
		s := m.shardOf(oid)
		s.mu.Lock()
		if c := s.chains[oid]; c != nil {
			s.pruneLocked(oid, c, m.epoch, true)
		}
		s.mu.Unlock()
	}
	m.held = nil
}

// LiveSnapshots returns the number of currently registered snapshots.
func (m *Manager) LiveSnapshots() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := 0
	for _, c := range m.snaps {
		n += c
	}
	return n
}

// RecordWrite registers txn's intent to overwrite (or create) oid with
// next, capturing base — the committed heap image, nil if the object does
// not exist — as the chain's base version if the object has no chain yet.
// MUST be called before the heap write it shields; the caller holds the X
// instance lock, so at most one writer touches a chain's pending entry.
func (m *Manager) RecordWrite(txn uint64, oid model.OID, base, next []byte) {
	m.record(txn, oid, base, next, false)
}

// RecordDelete is RecordWrite for a delete: the pending entry marks the
// object invisible to post-commit snapshots.
func (m *Manager) RecordDelete(txn uint64, oid model.OID, base []byte) {
	m.record(txn, oid, base, nil, true)
}

func (m *Manager) record(txn uint64, oid model.OID, base, next []byte, del bool) {
	s := m.shardOf(oid)
	s.mu.Lock()
	c := s.chains[oid]
	if c == nil {
		c = &chain{versions: []version{{epoch: 0, data: base}}}
		s.chains[oid] = c
		mChainsLive.Add(1)
	}
	first := c.pendingTxn != txn
	c.pendingTxn = txn
	c.pendingDel = del
	c.pending = next
	if del && !c.tombstone {
		c.tombstone = true
		s.tombs[oid.Class()]++
	}
	s.mu.Unlock()
	mVersionWrites.Add(1)
	if first {
		// First write by this transaction: remember the chain for commit
		// stamping. (A prior writer's pending entry cannot still be here —
		// X locks serialize writers and commit/abort clears it.)
		m.mu.Lock()
		m.byTxn[txn] = append(m.byTxn[txn], oid)
		m.mu.Unlock()
	}
}

// Commit stamps every pending entry of txn with the next commit epoch and
// publishes it. The stamps and the epoch publication happen under the
// manager lock: a concurrent BeginSnapshot either sees the old epoch (and
// none of the new versions) or the new epoch (and all of them).
func (m *Manager) Commit(txn uint64) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	oids := m.byTxn[txn]
	if len(oids) == 0 {
		return m.epoch
	}
	delete(m.byTxn, txn)
	e := m.epoch + 1
	m.epoch = e
	// Horizon computed after the epoch moves: with no live snapshot the
	// just-stamped version itself is the horizon, so an unobserved chain
	// converges (and is dropped) in the same critical section.
	oldest := m.oldestLocked()
	drop := len(m.snaps) == 0
	for _, oid := range oids {
		s := m.shardOf(oid)
		s.mu.Lock()
		c := s.chains[oid]
		if c == nil || c.pendingTxn != txn {
			s.mu.Unlock()
			continue
		}
		var data []byte
		if !c.pendingDel {
			data = c.pending
		}
		c.versions = append(c.versions, version{epoch: e, data: data})
		c.pendingTxn, c.pending, c.pendingDel = 0, nil, false
		mChainLength.Observe(uint64(len(c.versions)))
		s.pruneLocked(oid, c, oldest, drop)
		s.mu.Unlock()
		m.holdLocked(oid, drop)
	}
	return e
}

// Abort discards txn's pending entries. The heap is restored separately
// by the transaction's undo chain; the chain's committed versions already
// describe exactly that restored state.
func (m *Manager) Abort(txn uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	oids := m.byTxn[txn]
	if len(oids) == 0 {
		return
	}
	delete(m.byTxn, txn)
	oldest := m.oldestLocked()
	drop := len(m.snaps) == 0
	for _, oid := range oids {
		s := m.shardOf(oid)
		s.mu.Lock()
		c := s.chains[oid]
		if c != nil && c.pendingTxn == txn {
			c.pendingTxn, c.pending, c.pendingDel = 0, nil, false
			s.pruneLocked(oid, c, oldest, drop)
		}
		s.mu.Unlock()
		m.holdLocked(oid, drop)
	}
}

// holdLocked remembers a chain pruned without drop, for the EndSnapshot
// that leaves no snapshot live. Caller holds m.mu.
func (m *Manager) holdLocked(oid model.OID, drop bool) {
	if drop {
		return
	}
	if m.held == nil {
		m.held = make(map[model.OID]struct{})
	}
	m.held[oid] = struct{}{}
}

// Resolve maps a heap read to the state of oid visible at epoch snap.
// heapData/heapOK describe what the heap returned (and must have been
// read before the call — see the ordering protocol in the package
// comment); a pending entry of txn (nonzero) passes them through. The
// result is the visible image and whether the object exists at the
// snapshot. Resolve takes only the OID's shard read-lock, so scans
// resolving thousands of objects do not serialize behind writers.
func (m *Manager) Resolve(oid model.OID, heapData []byte, heapOK bool, snap, txn uint64) ([]byte, bool) {
	s := m.shardOf(oid)
	s.mu.RLock()
	c := s.chains[oid]
	if c == nil || txn != 0 && c.pendingTxn == txn {
		s.mu.RUnlock()
		return heapData, heapOK
	}
	data, ok := c.visible(snap)
	s.mu.RUnlock()
	if !ok {
		// Older than the chain's history: without a base that old the
		// object did not exist at the snapshot.
		return nil, false
	}
	return data, data != nil
}

// ClassChains returns the OIDs of the given class that currently have
// version chains. Snapshot index probes use it to surface objects whose
// snapshot-visible state the live index no longer points at.
func (m *Manager) ClassChains(class model.ClassID) []model.OID {
	var out []model.OID
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		for oid := range s.chains {
			if oid.Class() == class {
				out = append(out, oid)
			}
		}
		s.mu.RUnlock()
	}
	return out
}

// ClassTombstones reports how many of the class's chains carry a delete
// version — the only chains whose object can be missing from the heap.
// Snapshot scans skip their chain-only sweep when it returns 0; the check
// must run AFTER the heap scan so a delete recorded mid-scan (whose heap
// record the scan then missed) is counted.
func (m *Manager) ClassTombstones(class model.ClassID) int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		n += s.tombs[class]
		s.mu.RUnlock()
	}
	return n
}

// oldestLocked is the prune horizon: the oldest live snapshot epoch, or
// the current epoch when no snapshot is live. Caller holds m.mu.
func (m *Manager) oldestLocked() uint64 {
	oldest := m.epoch
	for e := range m.snaps {
		if e < oldest {
			oldest = e
		}
	}
	return oldest
}

// pruneLocked trims versions no live snapshot can see: versions strictly
// older than the newest version with epoch ≤ oldest are unreachable. When
// drop is set (no snapshot live anywhere), a chain reduced to that single
// version with no pending writer has converged with the heap and is
// removed entirely. Removal with snapshots live would reopen the
// un-shielding race described in the package comment, so it is gated on
// drop. Caller holds the shard lock.
func (s *shard) pruneLocked(oid model.OID, c *chain, oldest uint64, drop bool) {
	for i := len(c.versions) - 1; i >= 0; i-- {
		if c.versions[i].epoch <= oldest {
			if i > 0 {
				c.versions = c.versions[i:]
				mVersionsPruned.Add(uint64(i))
			}
			break
		}
	}
	if drop && c.pendingTxn == 0 && len(c.versions) == 1 && c.versions[0].epoch <= oldest {
		delete(s.chains, oid)
		if c.tombstone {
			if n := s.tombs[oid.Class()]; n > 1 {
				s.tombs[oid.Class()] = n - 1
			} else {
				delete(s.tombs, oid.Class())
			}
		}
		mVersionsPruned.Add(1)
		mChainsLive.Add(-1)
	}
}

// Chains returns the number of live version chains (tests, metrics).
func (m *Manager) Chains() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		n += len(s.chains)
		s.mu.RUnlock()
	}
	return n
}
