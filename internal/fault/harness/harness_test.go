package harness

import (
	"testing"

	"oodb/internal/fault"
)

const (
	testSeed  int64 = 7
	testSteps       = 20
)

// census runs the workload under an injector that never fires and returns
// every op it performed.
func census(t *testing.T) []fault.Point {
	t.Helper()
	inj := fault.NewInjector(fault.Schedule{Seed: testSeed})
	if res := Run(t.TempDir(), inj, testSeed, testSteps, NewModel()); res.Err != nil {
		t.Fatalf("census run failed: %v", res.Err)
	}
	return inj.Census()
}

// TestCensusIsReproducible: two census runs of the same (seed, steps) list
// the same ops in the same order — what a pinned schedule relies on.
func TestCensusIsReproducible(t *testing.T) {
	a, b := census(t), census(t)
	if i := firstDiff(a, b); i >= 0 {
		t.Fatalf("census runs differ at op %d of %d/%d", i, len(a), len(b))
	}
}

// TestCensusPhasesCountFromOne: within every phase, At runs 1, 2, ... in
// op order with no gaps, however often the workload re-enters the phase.
func TestCensusPhasesCountFromOne(t *testing.T) {
	next := make(map[string]int)
	for i, p := range census(t) {
		next[p.Phase]++
		if p.At != next[p.Phase] {
			t.Fatalf("op %d: %s at %d, want %d", i, p.Phase, p.At, next[p.Phase])
		}
	}
	if len(next) < 5 {
		t.Fatalf("census enters only phases %v", next)
	}
}

// TestScheduleCrashesAtCensusPoint: a run scheduled at a census key runs the
// census's ops up to that key and crashes on the op the census lists there.
func TestScheduleCrashesAtCensusPoint(t *testing.T) {
	pts := census(t)
	byPhase := make(map[string][]fault.Point)
	for _, p := range pts {
		byPhase[p.Phase] = append(byPhase[p.Phase], p)
	}
	for phase, list := range byPhase {
		want := list[len(list)/2]
		inj := fault.NewInjector(fault.Schedule{Seed: testSeed, Phase: phase, CrashAt: want.At})
		res := Run(t.TempDir(), inj, testSeed, testSteps, NewModel())
		got := inj.Census()
		if !res.Crashed || len(got) == 0 || got[len(got)-1] != want {
			t.Fatalf("schedule at %s/%d (%s): crashed %v after %d ops", phase, want.At, want.Op, res.Crashed, len(got))
		}
		if i := firstDiff(got, pts[:len(got)]); i >= 0 {
			t.Fatalf("schedule at %s/%d: op %d differs from the census", phase, want.At, i)
		}
	}
}

// firstDiff returns the index of the first point where a and b differ
// (including one ending early), or -1 when they are equal.
func firstDiff(a, b []fault.Point) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}
