package wal

// Unit coverage for the commit pipeline: the dedicated writer goroutine,
// the durability watermark, relaxed-durability requests, and the close
// drain. The sticky-latch error path lives in errpath_test.go (it needs
// the external fault wrappers).

import (
	"fmt"
	"testing"
	"time"
)

func TestWatermarkOrdering(t *testing.T) {
	w, _, _ := openTestWAL(t)
	defer w.Close()
	var lsns []uint64
	for i := 0; i < 3; i++ {
		lsn, err := w.Append(Record{Txn: 1, Type: RecBegin})
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	if got := w.DurableLSN(); got != 0 {
		t.Fatalf("watermark before any sync = %d", got)
	}
	if err := w.WaitDurable(lsns[1]); err != nil {
		t.Fatal(err)
	}
	// The flush covers everything buffered, so the watermark lands at the
	// tail, not just the requested LSN.
	if got := w.DurableLSN(); got < lsns[1] {
		t.Fatalf("watermark %d below awaited LSN %d", got, lsns[1])
	}
	if got := w.LastLSN(); w.DurableLSN() != got {
		t.Fatalf("watermark %d, tail %d: flush should cover the buffer", w.DurableLSN(), got)
	}
	// Waiting on an already-durable LSN is a no-op (no new fsync).
	syncs := w.Syncs.Load()
	if err := w.WaitDurable(lsns[0]); err != nil {
		t.Fatal(err)
	}
	if w.Syncs.Load() != syncs {
		t.Fatal("WaitDurable below the watermark performed a redundant fsync")
	}
}

func TestRequestSyncEventuallyDurable(t *testing.T) {
	w, _, path := openTestWAL(t)
	lsn, err := w.Append(Record{Txn: 9, Type: RecCommit})
	if err != nil {
		t.Fatal(err)
	}
	w.RequestSync(lsn)
	deadline := time.Now().Add(5 * time.Second)
	for w.DurableLSN() < lsn {
		if time.Now().After(deadline) {
			t.Fatalf("async request never became durable (watermark %d, want %d)", w.DurableLSN(), lsn)
		}
		time.Sleep(time.Millisecond)
	}
	w.Close()
	_, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Txn != 9 {
		t.Fatalf("recovered %+v", recs)
	}
}

func TestCloseDrainsPendingAsync(t *testing.T) {
	// Relaxed-durability requests still pending at Close must be flushed
	// by the writer's final drain, not dropped with the buffer.
	w, _, path := openTestWAL(t)
	const n = 25
	for i := 0; i < n; i++ {
		lsn, err := w.Append(Record{Txn: uint64(i + 1), Type: RecCommit})
		if err != nil {
			t.Fatal(err)
		}
		w.RequestSync(lsn)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("recovered %d records after close drain, want %d", len(recs), n)
	}
}

func TestWriterBatchesConcurrentCommitters(t *testing.T) {
	// Closed-loop committers on a real file must share fsyncs at every
	// width, the pair included: each comes back long before the shortest
	// window (50 µs) closes. The bars leave room for a descheduled committer
	// missing a round; the exact regimes are pinned in trigger_test.go.
	for _, tc := range []struct {
		workers, per int
		minBatch     float64
	}{
		{2, 400, 1.5},
		{32, 60, 4},
	} {
		t.Run(fmt.Sprintf("%d committers", tc.workers), func(t *testing.T) {
			w, _, _ := openTestWAL(t)
			defer w.Close()
			commitLoops(t, w, tc.per, make([]time.Duration, tc.workers)...)
			commits := uint64(tc.workers * tc.per)
			syncs := w.Syncs.Load()
			batch := float64(commits) / float64(syncs)
			t.Logf("commits=%d syncs=%d batch=%.1f", commits, syncs, batch)
			if batch < tc.minBatch {
				t.Fatalf("weak batching: %d syncs for %d commits (mean %.1f, want >= %.1f)",
					syncs, commits, batch, tc.minBatch)
			}
		})
	}
}

func TestResetSatisfiesParkedRequests(t *testing.T) {
	// A checkpoint Reset discards records whose durability is now carried
	// by the flushed pages; the watermark must jump so lazy requests for
	// them complete instead of waiting for a flush of truncated bytes.
	w, _, _ := openTestWAL(t)
	defer w.Close()
	lsn, err := w.Append(Record{Txn: 1, Type: RecCommit})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if got := w.DurableLSN(); got < lsn {
		t.Fatalf("watermark %d did not advance over reset tail %d", got, lsn)
	}
	if err := w.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	// LSNs never regress across Reset.
	next, err := w.Append(Record{Txn: 2, Type: RecBegin})
	if err != nil {
		t.Fatal(err)
	}
	if next <= lsn {
		t.Fatalf("LSN regressed across Reset: %d after %d", next, lsn)
	}
}

func TestAfterSyncHookRunsBeforePublish(t *testing.T) {
	w, _, _ := openTestWAL(t)
	defer w.Close()
	var sawWatermark []uint64
	w.SetAfterSync(func() {
		sawWatermark = append(sawWatermark, w.DurableLSN())
	})
	lsn, err := w.Append(Record{Txn: 1, Type: RecCommit})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	if len(sawWatermark) == 0 {
		t.Fatal("afterSync hook never ran")
	}
	// The hook observes the pre-publish watermark: the fsync that made lsn
	// durable has happened, but the publish has not.
	if sawWatermark[0] >= lsn {
		t.Fatalf("hook saw watermark %d, want < %d (pre-publish)", sawWatermark[0], lsn)
	}
}
