// Package fault provides deterministic fault injection for the storage and
// WAL stack. It wraps the two I/O seams the engine exposes —
// storage.Disk (via storage/core Options.WrapDisk) and wal.File (via
// Options.WrapWAL) — and scripts failpoints at every I/O operation:
// fail-after-N-ops, short/torn writes, fsync errors, fsync lies (ack
// without durability), and hard crashes after which every I/O fails until
// "reboot" (reopening the database without the crashed wrapper).
//
// Determinism is the point: every run is driven by a Schedule (seed + crash
// point + style), ops are counted across both seams — per workload phase
// and in total — and the lost-write simulation applied at crash time draws
// from the schedule's seeded RNG in a fixed order. A failing schedule
// printed by the harness reproduces the identical crash state when re-run.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
)

// Op identifies an injectable I/O site.
type Op string

// The injectable sites. Each names one operation on a wrapped seam.
const (
	OpDiskRead  Op = "disk.read"
	OpDiskWrite Op = "disk.write"
	OpDiskSync  Op = "disk.sync"
	OpDiskAlloc Op = "disk.alloc"
	OpDiskFree  Op = "disk.free"
	OpDiskRoot  Op = "disk.root"
	OpWALWrite  Op = "wal.write"
	OpWALSync   Op = "wal.sync"
	OpWALTrunc  Op = "wal.trunc"
)

// Sentinel errors surfaced by injected faults.
var (
	// ErrInjected is returned by an op armed with FailAt (a transient,
	// non-crash I/O error).
	ErrInjected = errors.New("fault: injected I/O error")
	// ErrCrashed is returned by every op after the simulated crash fires:
	// the process is "dead" and all I/O fails until reboot.
	ErrCrashed = errors.New("fault: I/O after simulated crash")
)

// Style selects how the crash point manifests.
type Style int

// The crash styles.
const (
	// StyleClean fails the crashing op before any byte reaches the file.
	StyleClean Style = iota
	// StyleTorn lets a seeded prefix of the crashing write reach the file
	// first (a torn page or torn WAL record). Non-write ops degrade to
	// StyleClean.
	StyleTorn
	// StyleLie makes the crashing fsync (and every later one) acknowledge
	// without durability; the crash itself fires a few ops later. Non-sync
	// ops degrade to StyleClean.
	StyleLie
)

func (s Style) String() string {
	switch s {
	case StyleTorn:
		return "torn"
	case StyleLie:
		return "lie"
	default:
		return "clean"
	}
}

// Schedule scripts one deterministic run: the RNG seed (workload and
// lost-write decisions) and the op at which to crash. CrashAt counts the
// ops of Phase (see SetPhase); the empty phase counts every op. Addressing
// a crash by its phase keeps it in place when another phase's I/O changes.
type Schedule struct {
	Seed    int64
	Phase   string
	CrashAt int // 1-based op index within Phase; 0 never crashes
	Style   Style
}

func (s Schedule) String() string {
	return fmt.Sprintf("seed=%d phase=%q crashAt=%d style=%s", s.Seed, s.Phase, s.CrashAt, s.Style)
}

// Point is one enumerable crash site observed by a census run: the
// workload phase active when the op executed, the op's 1-based index
// within that phase, and the site. Schedule{Phase: p.Phase, CrashAt: p.At}
// crashes at it.
type Point struct {
	Phase string
	At    int
	Op    Op
}

// decision is the injector's verdict for one op.
type decision int

const (
	decOK decision = iota
	decError
	decCrash
	decTorn
	decLie
)

// Injector counts I/O ops across every wrapped seam and decides, per op,
// whether it proceeds, fails, or crashes the "process". It records every
// op it lets through as a Point (see Census). All decisions and
// all randomness are serialized under one mutex so concurrent I/O still
// yields a well-defined (if interleaving-dependent) outcome; the
// single-threaded harness workload is fully deterministic.
type Injector struct {
	mu      sync.Mutex
	sched   Schedule
	rng     *rand.Rand
	n       int            // ops so far, every phase
	inPhase map[string]int // ops so far, per phase
	phase   string
	census  []Point
	crashed bool
	lieFrom int // >0: syncs lie from this op on; crash at lieAt
	lieAt   int
	failAt  map[Op]int
	seen    map[Op]int
	onCrash []func(*rand.Rand)
}

// NewInjector builds an injector for the schedule.
func NewInjector(sched Schedule) *Injector {
	return &Injector{
		sched:   sched,
		rng:     rand.New(rand.NewSource(sched.Seed)),
		inPhase: make(map[string]int),
		failAt:  make(map[Op]int),
		seen:    make(map[Op]int),
	}
}

// SetPhase labels subsequent ops with the workload phase. A phase entered
// again continues its count.
func (in *Injector) SetPhase(p string) {
	in.mu.Lock()
	in.phase = p
	in.mu.Unlock()
}

// Census returns the ops recorded so far. An injector whose schedule never
// crashes (CrashAt 0) enumerates the crash sites of a workload; a crashed
// one's last point is the op it crashed.
func (in *Injector) Census() []Point {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Point(nil), in.census...)
}

// Crashed reports whether the simulated crash has fired.
func (in *Injector) Crashed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.crashed
}

// Lied reports whether the lie window armed: some fsync acknowledged
// without durability. From that point no durability guarantee holds — the
// engine may have truncated redo records it believed were flushed — so
// checkers must fall back to the weaker lie contract (clean reopen or
// clean failure, internally readable state).
func (in *Injector) Lied() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.lieFrom > 0
}

// FailAt arms a one-shot ErrInjected on the n-th (1-based) future
// occurrence of op — the transient-error knob for unit tests, independent
// of the crash schedule.
func (in *Injector) FailAt(op Op, n int) {
	in.mu.Lock()
	in.failAt[op] = in.seen[op] + n
	in.mu.Unlock()
}

// OnCrash registers a hook run (under the injector lock) when the crash
// fires. The wrappers use it to apply the seeded lost-write simulation to
// their files; hooks run in registration order, which is deterministic for
// a deterministic open sequence.
func (in *Injector) OnCrash(fn func(*rand.Rand)) {
	in.mu.Lock()
	in.onCrash = append(in.onCrash, fn)
	in.mu.Unlock()
}

// Crash forces the crash now (used by the torn-write path after its
// partial write, and by tests).
func (in *Injector) Crash() {
	in.mu.Lock()
	in.crashLocked()
	in.mu.Unlock()
}

// Intn draws from the schedule's RNG under the injector lock (the wrappers
// use it for torn-write prefix lengths).
func (in *Injector) Intn(n int) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Intn(n)
}

// begin records one op and returns its fate.
func (in *Injector) begin(op Op) decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.crashed {
		return decCrash
	}
	in.n++
	in.inPhase[in.phase]++
	in.seen[op]++
	in.census = append(in.census, Point{Phase: in.phase, At: in.inPhase[in.phase], Op: op})
	if at, ok := in.failAt[op]; ok && in.seen[op] == at {
		delete(in.failAt, op)
		return decError
	}
	if in.lieFrom > 0 {
		if in.n >= in.lieAt {
			in.crashLocked()
			return decCrash
		}
		if op == OpWALSync || op == OpDiskSync {
			return decLie // the device keeps lying until the crash
		}
	}
	if in.crashOp() {
		switch in.sched.Style {
		case StyleTorn:
			if op == OpDiskWrite || op == OpWALWrite {
				return decTorn // wrapper writes a prefix, then calls Crash
			}
		case StyleLie:
			if op == OpWALSync || op == OpDiskSync {
				in.lieFrom = in.n
				in.lieAt = in.n + 2 + in.rng.Intn(8)
				return decLie
			}
		}
		in.crashLocked()
		return decCrash
	}
	return decOK
}

// crashOp reports whether the op just counted is the schedule's crash op.
func (in *Injector) crashOp() bool {
	if in.sched.Phase == "" {
		return in.n == in.sched.CrashAt
	}
	return in.phase == in.sched.Phase && in.inPhase[in.phase] == in.sched.CrashAt
}

func (in *Injector) crashLocked() {
	if in.crashed {
		return
	}
	in.crashed = true
	for _, fn := range in.onCrash {
		fn(in.rng)
	}
}
