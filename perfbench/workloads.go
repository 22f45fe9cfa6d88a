package main

import (
	"fmt"
	"math/rand"
)

// Every size, mix and pool size of the benchmark is a constant in this file.
// They are not flags: a number measured with other values is a number from
// another benchmark.
const (
	maxClients   = 2    // closed-loop clients; min(maxClients, nproc) are used
	opPool       = 1000 // generated operations per workload; clients draw from them
	setupRepeats = 3    // set-ups timed per end-to-end run; setup_s is their median
	subWindows   = 15   // the measured window is cut into this many spread samples

	// embed.traverse: an OO1 parts graph whose heap (~2400 pages with two
	// deleted noise objects per part) is ~4.7x the buffer pool.
	oo1Parts      = 20000
	oo1Conn       = 3
	oo1NoisePer   = 2
	traverseDepth = 6
	traversePool  = 512

	// The "world" shared by embed.query, wire.mixed and shard.scatter: a
	// 3-level hierarchy H0..H6 and the paper's Figure 1 vehicle schema. It
	// is ~500 pages and fits worldPool whole.
	hPerClass  = 600
	hValRange  = 800
	nCompanies = 400
	nCities    = 200
	nVehicles  = 4800
	worldPool  = 8192
	rangeSpan  = 40
	rangeLimit = 10

	// embed.commit. Checkpoints are taken by the workload itself: client 0
	// calls Checkpoint after every checkpointEvery of its transactions while
	// the other client is held between transactions, and the engine's
	// automatic checkpoint is switched off (neverCheckpoint). An automatic
	// checkpoint runs inside one client's commit while the other client keeps
	// writing, and in the engine as it stands that loses acknowledged inserts
	// or panics the buffer pool about one 10 s run in three (README.md,
	// "Found while building"); a benchmark has to run where nothing fails.
	// 3000 transactions are ~0.9 s, so every sub-window pays for a checkpoint.
	// The pool holds the database whole: the work is meant to be log, fsync
	// and locks, not page I/O.
	nAccounts       = 50000
	checkpointEvery = 3000
	snapshotReads   = 10
	neverCheckpoint = 1 << 40 // CheckpointBytes no run reaches

	// shard.scatter
	shardMembers = 2

	// An updated weight is base + weightStep*n, so any read of it, however
	// stale a session cache made it, must still be congruent to its base.
	weightStep = 10000
)

type opKind uint8

const (
	kTraverse opKind = iota
	kPoint
	kRange
	kNested
	kAgg
	kTxn
	kSnapRead
	kGet
	kFetch
	kQuery
	kQuerySnap
	kUpdate
	kInsertTxn
	kScatterOrdered
	kScatterAgg
	kScatterRows
	kRoutedGet
	kRoutedFetch
	kRoutedUpdate
)

var kindNames = [...]string{
	kTraverse: "traverse", kPoint: "point", kRange: "range", kNested: "nested", kAgg: "agg",
	kTxn: "txn", kSnapRead: "snapshot-read",
	kGet: "get", kFetch: "fetch", kQuery: "query", kQuerySnap: "query-snapshot",
	kUpdate: "update", kInsertTxn: "insert-txn",
	kScatterOrdered: "scatter-ordered", kScatterAgg: "scatter-agg", kScatterRows: "scatter-rows",
	kRoutedGet: "routed-get", kRoutedFetch: "routed-fetch", kRoutedUpdate: "routed-update",
}

// op is one generated operation. Kind, Stmt and Arg come from the seed alone;
// want is the oracle's answer, filled in at set-up.
type op struct {
	Kind opKind
	Stmt string
	Arg  int
	want uint64
}

type share struct {
	kind opKind
	pct  int
}

// workloadDef is one row of the workload table.
type workloadDef struct {
	name  string
	why   string
	flush string // the flush policy, which never varies between runs
	every int    // the traced pass samples one operation in this many
	mix   []share
	setup func(e *env) (*instance, error)
}

var workloads = []workloadDef{
	{
		name:  "embed.traverse",
		why:   "read-only OO1 closures over a heap ~4.7x the buffer pool: storage (pool, heap, page reads) does the work; query, wal, server and shard do none",
		flush: "loaded with NoSync, then Checkpoint; read-only afterwards",
		every: 32,
		mix:   []share{{kTraverse, 100}},
		setup: setupTraverse,
	},
	{
		name:  "embed.query",
		why:   "a query mix over indexed data that fits the pool: parse, plan, execute and index do the work and the buffer hit rate is ~1, so a pool change must not move it and a planner change must",
		flush: "loaded with NoSync, then Checkpoint; read-only afterwards",
		every: 8,
		mix:   []share{{kPoint, 60}, {kRange, 20}, {kNested, 10}, {kAgg, 10}},
		setup: setupQuery,
	},
	{
		name:  "embed.commit",
		why:   "small durable transactions beside snapshot reads: wal, fsync, group commit, locks and checkpoints dominate, so a read-path gain that costs writers shows here",
		flush: "full durability: every commit waits for its fsync (NoSync=false, RelaxedDurability=false); a quiesced Checkpoint every 3000 transactions of client 0",
		every: 8,
		mix:   []share{{kTxn, 90}, {kSnapRead, 10}},
		setup: setupCommit,
	},
	{
		name:  "wire.mixed",
		why:   "small requests through one in-process kimsrv over loopback TCP: encode, framing, admission, session dispatch and reply encode are the largest share; minus embed.query it isolates the wire",
		flush: "full durability on the served database; loaded in batched durable transactions; no checkpoint inside the window",
		every: 16,
		mix:   []share{{kGet, 40}, {kFetch, 25}, {kQuery, 20}, {kQuerySnap, 5}, {kUpdate, 7}, {kInsertTxn, 3}},
		setup: setupWire,
	},
	{
		name:  "shard.scatter",
		why:   "router calls over 2 in-process members: fan-out, the slowest leg, ordered merge and OID translation dominate; the only workload where a result waits on parallel parts",
		flush: "full durability on both members; loaded in batched durable transactions; no checkpoint inside the window",
		every: 8,
		mix: []share{{kScatterOrdered, 25}, {kScatterAgg, 25}, {kScatterRows, 10},
			{kRoutedGet, 20}, {kRoutedFetch, 10}, {kRoutedUpdate, 10}},
		setup: setupShard,
	},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// genOps generates the workload's operation pool from the seed alone: for
// each kind, its share of opPool operations with seeded parameters.
func genOps(def *workloadDef, seed int64, clients int) []op {
	r := rand.New(rand.NewSource(seed))
	ops := make([]op, 0, opPool)
	for _, s := range def.mix {
		n := opPool * s.pct / 100
		for i := 0; i < n; i++ {
			ops = append(ops, genOp(s.kind, clients, func(size int) int { return stratified(r, i, n, size) }))
		}
	}
	return ops
}

// stratified draws the i-th of n values from [0,size): one from each of n
// equal strata. Every seed then covers a parameter's domain evenly, and a
// workload's mean cost does not depend on where one seed's draws happened to
// cluster (a range query costs more the lower its bound, a closure more the
// denser its neighbourhood).
func stratified(r *rand.Rand, i, n, size int) int {
	lo, hi := i*size/n, (i+1)*size/n
	if hi <= lo {
		return lo
	}
	return lo + r.Intn(hi-lo)
}

// genOp builds one operation of kind k; draw(size) is its parameter, drawn
// from [0,size).
func genOp(k opKind, clients int, draw func(size int) int) op {
	o := op{Kind: k}
	switch k {
	case kTraverse:
		o.Arg = draw(oo1Parts)
	case kPoint, kQuery, kQuerySnap, kScatterRows:
		o.Arg = draw(hValRange)
		o.Stmt = fmt.Sprintf("SELECT val, tag FROM H0 WHERE val = %d", o.Arg)
	case kRange:
		o.Arg = draw(hValRange - rangeSpan)
		o.Stmt = fmt.Sprintf("SELECT val FROM H0 WHERE val >= %d AND val < %d ORDER BY val LIMIT %d",
			o.Arg, o.Arg+rangeSpan, rangeLimit)
	case kNested:
		o.Arg = draw(nCities)
		o.Stmt = fmt.Sprintf("SELECT vid, weight FROM Vehicle WHERE manufacturer.location = 'City%d'", o.Arg)
	case kScatterOrdered:
		o.Arg = draw(nCities)
		o.Stmt = fmt.Sprintf("SELECT vid FROM Vehicle WHERE manufacturer.location = 'City%d' ORDER BY vid LIMIT %d",
			o.Arg, rangeLimit)
	case kAgg:
		o.Arg = draw(hValRange)
		o.Stmt = fmt.Sprintf("SELECT COUNT(*), SUM(val) FROM H1 WHERE val != %d", o.Arg)
	case kScatterAgg:
		o.Arg = draw(nCities)
		o.Stmt = fmt.Sprintf("SELECT COUNT(*), SUM(year), AVG(year) FROM Vehicle WHERE manufacturer.location = 'City%d'", o.Arg)
	case kTxn, kSnapRead:
		// A slot in the drawing client's own partition of the accounts.
		o.Arg = draw(nAccounts/clients - snapshotReads)
	case kGet, kFetch, kRoutedGet, kRoutedFetch:
		o.Arg = draw(nVehicles)
	case kUpdate, kRoutedUpdate:
		// A slot in the drawing client's own partition of the vehicles.
		o.Arg = draw(nVehicles / clients)
	case kInsertTxn:
		o.Arg = draw(nCompanies)
	}
	return o
}

// ordered reports whether the kind's result order is part of its answer.
func ordered(k opKind) bool {
	return k == kRange || k == kScatterOrdered
}

// stream is the order in which one client executes the pool: a seeded
// permutation of it, walked round and round. Drawing without replacement
// keeps every stretch of opPool operations on exactly the workload's mix and
// parameter spread, so a sub-window's cost does not depend on how many
// expensive operations a random draw happened to put in it.
type stream struct {
	perm []int
	pos  int
}

func clientStream(seed int64, client int) *stream {
	return &stream{perm: rand.New(rand.NewSource(seed*7919 + int64(client) + 1)).Perm(opPool)}
}

// next returns the pool index of the client's next operation.
func (s *stream) next() int {
	i := s.perm[s.pos]
	s.pos = (s.pos + 1) % len(s.perm)
	return i
}
