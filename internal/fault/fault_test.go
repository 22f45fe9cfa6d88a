package fault

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"oodb/internal/storage"
	"oodb/internal/wal"
)

// drive feeds a fixed op sequence through begin and returns the decisions,
// so two injectors with the same schedule can be compared verbatim.
func drive(in *Injector, ops []Op) []decision {
	out := make([]decision, len(ops))
	for i, op := range ops {
		out[i] = in.begin(op)
	}
	return out
}

var sampleOps = func() []Op {
	cycle := []Op{
		OpWALWrite, OpDiskWrite, OpWALWrite, OpWALSync, OpDiskWrite,
		OpDiskAlloc, OpDiskSync, OpDiskFree, OpWALWrite, OpWALSync,
	}
	var ops []Op
	for len(ops) < 100 {
		ops = append(ops, cycle...)
	}
	return ops[:100]
}()

func TestInjectorDeterminism(t *testing.T) {
	for _, style := range []Style{StyleClean, StyleTorn, StyleLie} {
		sched := Schedule{Seed: 99, CrashAt: 37, Style: style}
		a := drive(NewInjector(sched), sampleOps)
		b := drive(NewInjector(sched), sampleOps)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("style %s: decision %d differs: %v vs %v", style, i, a[i], b[i])
			}
		}
	}
}

func TestInjectorCrashStopsAllIO(t *testing.T) {
	in := NewInjector(Schedule{Seed: 1, CrashAt: 5})
	decs := drive(in, sampleOps)
	for i := 4; i < len(decs); i++ {
		if decs[i] != decCrash {
			t.Fatalf("op %d after crash point: got %v, want decCrash", i+1, decs[i])
		}
	}
	if !in.Crashed() {
		t.Fatal("Crashed() false after crash point")
	}
}

func TestFailAtIsOneShot(t *testing.T) {
	in := NewInjector(Schedule{Seed: 1})
	in.FailAt(OpWALSync, 2) // second future wal.sync fails
	got := drive(in, []Op{OpWALSync, OpWALWrite, OpWALSync, OpWALSync})
	want := []decision{decOK, decOK, decError, decOK}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("op %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestCensusRecordsEveryOp(t *testing.T) {
	in := NewInjector(Schedule{Seed: 1})
	in.SetPhase("alpha")
	in.begin(OpWALWrite)
	in.SetPhase("beta")
	in.begin(OpDiskSync)
	in.SetPhase("alpha")
	in.begin(OpDiskWrite)
	want := []Point{
		{Phase: "alpha", At: 1, Op: OpWALWrite},
		{Phase: "beta", At: 1, Op: OpDiskSync},
		{Phase: "alpha", At: 2, Op: OpDiskWrite}, // a re-entered phase continues its count
	}
	if pts := in.Census(); !slices.Equal(pts, want) {
		t.Fatalf("census %+v, want %+v", pts, want)
	}
	if in.Crashed() {
		t.Fatal("an injector with CrashAt 0 must never crash")
	}
}

// TestPhaseCrashAt: CrashAt counts the ops of the schedule's phase only,
// across re-entries; the empty phase counts every op.
func TestPhaseCrashAt(t *testing.T) {
	phases := []string{"a", "b", "a", "b", "a"}
	run := func(sched Schedule) int {
		in := NewInjector(sched)
		for i, ph := range phases {
			in.SetPhase(ph)
			if in.begin(OpDiskWrite) == decCrash {
				return i + 1
			}
		}
		return 0
	}
	for _, c := range []struct {
		sched Schedule
		want  int // 1-based op that crashes, 0 none
	}{
		{Schedule{Phase: "a", CrashAt: 2}, 3},
		{Schedule{Phase: "b", CrashAt: 2}, 4},
		{Schedule{Phase: "b", CrashAt: 3}, 0},
		{Schedule{CrashAt: 2}, 2},
	} {
		if got := run(c.sched); got != c.want {
			t.Errorf("{%v}: crashed at op %d, want %d", c.sched, got, c.want)
		}
	}
}

// TestLieArmsOnSyncThenCrashes: under StyleLie the crashing sync (and every
// later one) acknowledges without durability, and the hard crash follows
// within a bounded number of ops.
func TestLieArmsOnSyncThenCrashes(t *testing.T) {
	in := NewInjector(Schedule{Seed: 3, CrashAt: 4, Style: StyleLie})
	ops := []Op{OpWALWrite, OpWALWrite, OpWALWrite, OpWALSync}
	decs := drive(in, ops)
	if decs[3] != decLie {
		t.Fatalf("crashing sync: got %v, want decLie", decs[3])
	}
	if !in.Lied() {
		t.Fatal("Lied() false after lie armed")
	}
	crashedAt := -1
	for i := 0; i < 12; i++ {
		d := in.begin(OpWALSync)
		if d == decCrash {
			crashedAt = i
			break
		}
		if d != decLie {
			t.Fatalf("sync %d during lie window: got %v, want decLie", i, d)
		}
	}
	if crashedAt < 0 {
		t.Fatal("lie window never ended in a crash")
	}
}

// TestTornDegradesOnNonWrite: a torn-style crash point landing on a
// non-write op falls back to a clean crash.
func TestTornDegradesOnNonWrite(t *testing.T) {
	in := NewInjector(Schedule{Seed: 3, CrashAt: 1, Style: StyleTorn})
	if d := in.begin(OpDiskSync); d != decCrash {
		t.Fatalf("torn at sync: got %v, want decCrash", d)
	}
}

// TestWALFileCrashKeepsDurablePrefix: after a crash the log file holds its
// durable prefix intact plus at most the unsynced tail.
func TestWALFileCrashKeepsDurablePrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.log")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(Schedule{Seed: 11, CrashAt: 1000})
	var wf wal.File = WrapWAL(in)(f)

	durable := bytes.Repeat([]byte{0xAA}, 100)
	if _, err := wf.Write(durable); err != nil {
		t.Fatal(err)
	}
	if err := wf.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := wf.Write(bytes.Repeat([]byte{0xBB}, 50)); err != nil {
		t.Fatal(err)
	}
	in.Crash()

	if _, err := wf.Write([]byte("x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write after crash: %v, want ErrCrashed", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < 100 || len(got) > 150 {
		t.Fatalf("post-crash length %d, want within [100,150]", len(got))
	}
	if !bytes.Equal(got[:100], durable) {
		t.Fatal("durable prefix corrupted by crash")
	}
	for _, b := range got[100:] {
		if b != 0xBB {
			t.Fatalf("unsynced tail holds foreign byte %#x", b)
		}
	}
}

// TestWALFileShortWrite: the injected transient error writes exactly half
// the buffer and reports ErrInjected.
func TestWALFileShortWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.log")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(Schedule{Seed: 11})
	wf := WrapWAL(in)(f)
	in.FailAt(OpWALWrite, 1)
	n, err := wf.Write(bytes.Repeat([]byte{0xCC}, 64))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if n != 32 {
		t.Fatalf("short write wrote %d bytes, want 32", n)
	}
	st, _ := os.Stat(path)
	if st.Size() != 32 {
		t.Fatalf("file holds %d bytes, want 32", st.Size())
	}
}

// TestDiskCrashModel: an unsynced page write ends the crash in one of the
// three modelled states — survived, reverted to the synced image, or torn
// half-and-half — and never anything else.
func TestDiskCrashModel(t *testing.T) {
	outcomes := make(map[string]bool)
	for seed := int64(0); seed < 12; seed++ {
		path := filepath.Join(t.TempDir(), "d.kdb")
		dm, err := storage.OpenDisk(path)
		if err != nil {
			t.Fatal(err)
		}
		in := NewInjector(Schedule{Seed: seed, CrashAt: 100000})
		d := WrapDisk(in, path)(dm)

		id, err := d.AllocPage()
		if err != nil {
			t.Fatal(err)
		}
		v1 := pageWithRecord(bytes.Repeat([]byte{0x11}, 512))
		if err := d.WritePage(id, v1); err != nil {
			t.Fatal(err)
		}
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
		v2 := pageWithRecord(bytes.Repeat([]byte{0x22}, 512))
		if err := d.WritePage(id, v2); err != nil {
			t.Fatal(err)
		}
		in.Crash()

		if err := d.Sync(); !errors.Is(err, ErrCrashed) {
			t.Fatalf("sync after crash: %v, want ErrCrashed", err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got := raw[int(id)*storage.PageSize : (int(id)+1)*storage.PageSize]
		half := storage.PageSize / 2
		v1b, v2b := sealedBytes(v1), sealedBytes(v2)
		torn := append(append([]byte(nil), v2b[:half]...), v1b[half:]...)
		switch {
		case bytes.Equal(got, v2b):
			outcomes["survived"] = true
		case bytes.Equal(got, v1b):
			outcomes["reverted"] = true
		case bytes.Equal(got, torn):
			outcomes["torn"] = true
		default:
			t.Fatalf("seed %d: page in a state outside the crash model", seed)
		}
	}
	// Across a dozen seeds all three outcomes should occur; if the RNG ever
	// stops covering them the model has degenerated.
	for _, o := range []string{"survived", "reverted", "torn"} {
		if !outcomes[o] {
			t.Fatalf("outcome %q never produced across seeds", o)
		}
	}
}

func pageWithRecord(rec []byte) *storage.Page {
	var p storage.Page
	p.Init(storage.PageTypeHeap)
	if _, err := p.Insert(rec); err != nil {
		panic(err)
	}
	return &p
}

func sealedBytes(p *storage.Page) []byte {
	p.Seal()
	return append([]byte(nil), p.Bytes()...)
}
