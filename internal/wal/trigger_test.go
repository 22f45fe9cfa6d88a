package wal

// The regimes of the writer's group wait (WAL.accumulate), each against a
// log file whose fsync takes a fixed time and committers with a fixed think
// time. Every assertion is on a count — fsyncs, waits, timeouts — and the
// injected times leave a wide margin around the window they are compared
// with, so a slow or busy host changes how long a test runs, not its result.

import (
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// fixedSyncFile is a log file whose fsync takes d and touches no device.
type fixedSyncFile struct {
	File
	d time.Duration
}

func (f fixedSyncFile) Sync() error {
	time.Sleep(f.d)
	return nil
}

func openFixedSyncWAL(t *testing.T, fsync time.Duration) *WAL {
	t.Helper()
	w, _, err := OpenWith(filepath.Join(t.TempDir(), "fixed.wal"),
		func(f File) File { return fixedSyncFile{f, fsync} })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// commitLoops runs one closed-loop committer per think time, each making
// `commits` durable commits with its think time between two of them, and
// returns when all are done.
func commitLoops(t *testing.T, w *WAL, commits int, thinks ...time.Duration) {
	t.Helper()
	var wg sync.WaitGroup
	for i, think := range thinks {
		wg.Add(1)
		go func(txn uint64, think time.Duration) {
			defer wg.Done()
			for j := 0; j < commits; j++ {
				lsn, err := w.Append(Record{Txn: txn, Type: RecCommit})
				if err == nil {
					err = w.WaitDurable(lsn)
				}
				if err != nil {
					t.Error(err)
					return
				}
				time.Sleep(think)
			}
		}(uint64(i+1), think)
	}
	wg.Wait()
}

// waitCounts is a reading of the process-wide group-wait counters; the tests
// of this package run one at a time, so a difference belongs to the caller.
type waitCounts struct{ waits, timeouts uint64 }

func readWaitCounts() waitCounts {
	return waitCounts{mGroupWaits.Value(), mGroupWaitTimeouts.Value()}
}

func (a waitCounts) since(b waitCounts) waitCounts {
	return waitCounts{a.waits - b.waits, a.timeouts - b.timeouts}
}

func TestGroupWaitPairSharesFsync(t *testing.T) {
	// Think time far below the window (half of 4 ms): after the few rounds
	// the estimate needs to reach 2, every fsync carries both commits.
	w := openFixedSyncWAL(t, 4*time.Millisecond)
	const per = 150
	before := readWaitCounts()
	commitLoops(t, w, per, 0, 0)
	syncs, got := w.Syncs.Load(), readWaitCounts().since(before)
	batch := float64(2*per) / float64(syncs)
	t.Logf("commits=%d syncs=%d batch=%.2f waits=%d timeouts=%d", 2*per, syncs, batch, got.waits, got.timeouts)
	if batch < 1.9 {
		t.Fatalf("two closed-loop committers got %.2f commits per fsync, want >= 1.9", batch)
	}
}

func TestGroupWaitSoloNeverWaits(t *testing.T) {
	// The zero-added-latency guarantee: nobody is parked when a solo
	// committer's fsync ends, so the target never leaves 1.
	w := openFixedSyncWAL(t, time.Millisecond)
	const commits = 100
	before := readWaitCounts()
	commitLoops(t, w, commits, 0)
	if got := readWaitCounts().since(before); got.waits != 0 {
		t.Fatalf("the writer waited %d times for a solo committer", got.waits)
	}
	if syncs := w.Syncs.Load(); syncs != commits {
		t.Fatalf("%d fsyncs for %d solo commits", syncs, commits)
	}
}

func TestGroupWaitBacksOffFromSlowThinkers(t *testing.T) {
	// Fsync 10 ms, window 2 ms (maxBatchWait), committers that start half an
	// fsync apart; the times are this coarse because a sleep may overrun by a
	// millisecond. With 5 ms of think time each always parks during the
	// other's fsync, so the estimate holds 2, and always more than a window
	// after the other was released, so no wait is ever answered: only the
	// back-off stops the writer paying the window every round. With 25 ms
	// the commits do not overlap and the estimate itself falls to 1. Either
	// way timeouts are a small share of the rounds, and no round releases
	// fewer commits than it does with the wait disabled (one).
	const fsync = 10 * time.Millisecond
	for _, tc := range []struct {
		name  string
		think time.Duration
	}{
		{"inside one fsync", 5 * time.Millisecond},
		{"beyond one fsync", 25 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := openFixedSyncWAL(t, fsync)
			const per = 40
			before := readWaitCounts()
			second := make(chan struct{})
			go func() {
				defer close(second)
				time.Sleep(fsync / 2)
				commitLoops(t, w, per, tc.think)
			}()
			commitLoops(t, w, per, tc.think)
			<-second
			syncs, got := w.Syncs.Load(), readWaitCounts().since(before)
			t.Logf("commits=%d syncs=%d waits=%d timeouts=%d", 2*per, syncs, got.waits, got.timeouts)
			if got.timeouts*4 > syncs {
				t.Fatalf("%d of %d rounds waited out the window: no back-off", got.timeouts, syncs)
			}
			if syncs > 2*per {
				t.Fatalf("%d fsyncs for %d commits", syncs, 2*per)
			}
		})
	}
}

func TestGroupWaitStopsAfterCommitterLeaves(t *testing.T) {
	w := openFixedSyncWAL(t, 2*time.Millisecond)
	commitLoops(t, w, 60, 0, 0)
	if got := w.batchTarget(); got != 2 {
		t.Fatalf("target after a pair's run = %d, want 2", got)
	}
	// One of the pair is gone. The estimate decays from 2 to under 1.5 in
	// three rounds and the back-off skips one of those.
	before := readWaitCounts()
	commitLoops(t, w, 10, 0)
	if got := readWaitCounts().since(before); got.waits > 3 {
		t.Fatalf("the writer waited %d times for a committer that had left", got.waits)
	}
	before = readWaitCounts()
	commitLoops(t, w, 30, 0)
	if got := readWaitCounts().since(before); got.waits != 0 {
		t.Fatalf("the writer still waits (%d times) ten rounds after the committer left", got.waits)
	}
}

func TestGroupWaitIgnoresLazyRequests(t *testing.T) {
	// RequestSync parks nobody, so even a writer that has learnt to expect
	// two committers has nobody to hold a batch open for.
	w := openFixedSyncWAL(t, 2*time.Millisecond)
	commitLoops(t, w, 60, 0, 0)
	if got := w.batchTarget(); got != 2 {
		t.Fatalf("target after a pair's run = %d, want 2", got)
	}
	before := readWaitCounts()
	for i := 0; i < 30; i++ {
		lsn, err := w.Append(Record{Txn: 9, Type: RecCommit})
		if err != nil {
			t.Fatal(err)
		}
		w.RequestSync(lsn)
		for deadline := time.Now().Add(10 * time.Second); w.DurableLSN() < lsn; {
			if time.Now().After(deadline) {
				t.Fatalf("lazy request %d never became durable", i)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	if got := readWaitCounts().since(before); got.waits != 0 {
		t.Fatalf("the writer waited %d times on relaxed-durability traffic", got.waits)
	}
}

func TestGroupWaitTimerFiringBesideAFill(t *testing.T) {
	// A sibling that comes back just as the window closes: the wait's timer
	// can fire between the writer seeing the batch full and stopping it. The
	// expiry must not be left for the next wait to find, where it would end
	// that wait at once and leave its own timer to do the same to the one
	// after (the back-off then hides the timeouts and the pair stops sharing).
	// The first phase makes the coincidence likely (think times spread around
	// the 50 µs window of a fast file); the second is a pair that comes
	// straight back and must share nearly every fsync.
	w, _, _ := openTestWAL(t)
	defer w.Close()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for j := 0; j < 3000; j++ {
				lsn, err := w.Append(Record{Txn: uint64(seed), Type: RecCommit})
				if err == nil {
					err = w.WaitDurable(lsn)
				}
				if err != nil {
					t.Error(err)
					return
				}
				think := minBatchWait/2 + time.Duration(rng.Int63n(int64(minBatchWait)))
				for t0 := time.Now(); time.Since(t0) < think; {
				}
			}
		}(int64(i + 1))
	}
	wg.Wait()
	before, syncs := readWaitCounts(), w.Syncs.Load()
	const per = 200
	commitLoops(t, w, per, 0, 0)
	got, rounds := readWaitCounts().since(before), w.Syncs.Load()-syncs
	t.Logf("commits=%d rounds=%d waits=%d timeouts=%d", 2*per, rounds, got.waits, got.timeouts)
	if batch := float64(2*per) / float64(rounds); batch < 1.8 {
		t.Fatalf("%.2f commits per fsync for a pair with no think time: a stale timer expiry ends every wait", batch)
	}
}
