package wal

import (
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oodb/internal/model"
)

func openTestWAL(t *testing.T) (*WAL, []Record, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.wal")
	w, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return w, recs, path
}

func TestAppendAndRecover(t *testing.T) {
	w, recs, path := openTestWAL(t)
	if len(recs) != 0 {
		t.Fatalf("fresh log returned %d records", len(recs))
	}
	oid := model.MakeOID(20, 1)
	w.Append(Record{Txn: 1, Type: RecBegin})
	w.Append(Record{Txn: 1, Type: RecPut, OID: oid, After: []byte("img1")})
	w.Append(Record{Txn: 1, Type: RecCommit})
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	w2, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(recs) != 3 {
		t.Fatalf("recovered %d records, want 3", len(recs))
	}
	if recs[1].Type != RecPut || recs[1].OID != oid || string(recs[1].After) != "img1" {
		t.Errorf("record 1 = %+v", recs[1])
	}
	// LSNs are ascending and resume past the recovered tail.
	if recs[0].LSN >= recs[1].LSN || recs[1].LSN >= recs[2].LSN {
		t.Error("LSNs not ascending")
	}
	lsn, _ := w2.Append(Record{Txn: 2, Type: RecBegin})
	if lsn <= recs[2].LSN {
		t.Error("LSN sequence regressed after reopen")
	}
}

func TestUnsyncedRecordsMayVanish(t *testing.T) {
	// Records appended but never synced are buffered; a reopen (simulating
	// a crash) must not see a torn half-frame as valid data.
	w, _, path := openTestWAL(t)
	w.Append(Record{Txn: 1, Type: RecBegin})
	w.Sync()
	w.Append(Record{Txn: 1, Type: RecPut, OID: model.MakeOID(20, 1), After: []byte("x")})
	// Skip Sync; close the fd directly to drop the buffer.
	w.file.Close()

	_, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("recovered %d records, want only the synced one", len(recs))
	}
}

func TestTornTailStopsScan(t *testing.T) {
	w, _, path := openTestWAL(t)
	w.Append(Record{Txn: 1, Type: RecBegin})
	w.Append(Record{Txn: 1, Type: RecCommit})
	w.Sync()
	w.Close()

	// Append garbage simulating a torn frame.
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.Write([]byte{0, 0, 0, 99, 1, 2, 3, 4, 5})
	f.Close()

	w2, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want 2", len(recs))
	}
	// The torn tail was truncated; appending and reopening stays clean.
	w2.Append(Record{Txn: 2, Type: RecBegin})
	w2.Sync()
	w2.Close()
	_, recs, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("after truncate+append: %d records, want 3", len(recs))
	}
}

func TestCorruptMiddleFrameEndsRecovery(t *testing.T) {
	w, _, path := openTestWAL(t)
	w.Append(Record{Txn: 1, Type: RecBegin})
	w.Append(Record{Txn: 1, Type: RecCommit})
	w.Append(Record{Txn: 2, Type: RecBegin})
	w.Sync()
	w.Close()

	// Flip a byte in the middle of the file.
	data, _ := os.ReadFile(path)
	data[10] ^= 0xFF
	os.WriteFile(path, data, 0o644)

	_, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) >= 3 {
		t.Fatalf("corrupt frame not detected: %d records", len(recs))
	}
}

func TestReset(t *testing.T) {
	w, _, path := openTestWAL(t)
	for i := 0; i < 10; i++ {
		w.Append(Record{Txn: uint64(i), Type: RecBegin})
	}
	w.Sync()
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	size := w.Size()
	if size != 0 {
		t.Fatalf("size after reset = %d", size)
	}
	// Appends continue to work and survive reopen.
	w.Append(Record{Txn: 99, Type: RecBegin})
	w.Sync()
	w.Close()
	_, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Txn != 99 {
		t.Fatalf("post-reset records = %+v", recs)
	}
}

func TestAnalyzeAbortedIsFinished(t *testing.T) {
	// An aborted transaction logged its compensations; replay treats it as
	// finished (redo originals + compensations, no recovery-time undo).
	oid := model.MakeOID(20, 1)
	recs := []Record{
		{LSN: 1, Txn: 1, Type: RecBegin},
		{LSN: 2, Txn: 1, Type: RecPut, OID: oid, Before: []byte("A"), After: []byte("B")},
		{LSN: 3, Txn: 1, Type: RecPut, OID: oid, After: []byte("A")}, // compensation
		{LSN: 4, Txn: 1, Type: RecAbort},
		{LSN: 5, Txn: 2, Type: RecBegin},
		{LSN: 6, Txn: 2, Type: RecPut, OID: oid, Before: []byte("A"), After: []byte("C")},
		{LSN: 7, Txn: 2, Type: RecCommit},
	}
	a := Analyze(recs)
	if !a.Finished[1] || !a.Finished[2] {
		t.Fatalf("Finished = %v", a.Finished)
	}
	redo := a.RedoOps()
	if len(redo) != 3 {
		t.Fatalf("RedoOps = %d records, want 3", len(redo))
	}
	// Forward replay ends with C — the committed value.
	if string(redo[len(redo)-1].After) != "C" {
		t.Fatalf("final redo = %q", redo[len(redo)-1].After)
	}
	if len(a.UndoOps()) != 0 {
		t.Fatalf("UndoOps = %v", a.UndoOps())
	}
}

func TestAnalyzeWinnersAndLosers(t *testing.T) {
	oid1 := model.MakeOID(20, 1)
	oid2 := model.MakeOID(20, 2)
	recs := []Record{
		{LSN: 1, Txn: 1, Type: RecBegin},
		{LSN: 2, Txn: 1, Type: RecPut, OID: oid1, After: []byte("a")},
		{LSN: 3, Txn: 2, Type: RecBegin},
		{LSN: 4, Txn: 2, Type: RecPut, OID: oid2, Before: []byte("old"), After: []byte("b")},
		{LSN: 5, Txn: 1, Type: RecCommit},
		{LSN: 6, Txn: 2, Type: RecDelete, OID: oid1, Before: []byte("a")},
		// txn 2 never commits
	}
	a := Analyze(recs)
	if !a.Finished[1] || a.Finished[2] {
		t.Fatalf("Finished = %v", a.Finished)
	}
	redo := a.RedoOps()
	if len(redo) != 1 || redo[0].LSN != 2 {
		t.Fatalf("RedoOps = %+v", redo)
	}
	undo := a.UndoOps()
	if len(undo) != 2 || undo[0].LSN != 6 || undo[1].LSN != 4 {
		t.Fatalf("UndoOps = %+v", undo)
	}
}

func TestRecordRoundTripAllFields(t *testing.T) {
	rec := Record{
		Txn:    77,
		Type:   RecPut,
		OID:    model.MakeOID(123, 456),
		Before: []byte("before-image"),
		After:  []byte("after-image"),
	}
	w, _, path := openTestWAL(t)
	w.Append(rec)
	w.Sync()
	w.Close()
	_, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	got := recs[0]
	if got.Txn != rec.Txn || got.Type != rec.Type || got.OID != rec.OID ||
		string(got.Before) != "before-image" || string(got.After) != "after-image" {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestEmptyImagesStayNil(t *testing.T) {
	w, _, path := openTestWAL(t)
	w.Append(Record{Txn: 1, Type: RecPut, OID: model.MakeOID(20, 1), After: []byte("x")})
	w.Sync()
	w.Close()
	_, recs, _ := Open(path)
	if recs[0].Before != nil {
		t.Error("nil before-image decoded non-nil")
	}
}

func TestSyncConcurrentCommitters(t *testing.T) {
	w, _, path := openTestWAL(t)
	const committers = 16
	done := make(chan error, committers)
	for i := 0; i < committers; i++ {
		go func(i int) {
			if _, err := w.Append(Record{Txn: uint64(i + 1), Type: RecCommit}); err != nil {
				done <- err
				return
			}
			done <- w.Sync()
		}(i)
	}
	for i := 0; i < committers; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	_, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != committers {
		t.Fatalf("recovered %d records, want %d", len(recs), committers)
	}
}

func TestSyncSequential(t *testing.T) {
	// A single committer repeatedly syncing must see every record durable
	// (the loop must not lose the running flag or wedge).
	w, _, path := openTestWAL(t)
	for i := 0; i < 20; i++ {
		w.Append(Record{Txn: uint64(i + 1), Type: RecBegin})
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	_, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 20 {
		t.Fatalf("recovered %d records", len(recs))
	}
}

// benchCommitSync times b.N durable commits from closed-loop committers, each
// spinning for think between two of its commits, and reports how many commits
// shared an fsync. A recycled run first fills a generation twice as long as
// the commits will take and Resets, so every timed fsync covers blocks the
// file already owns; otherwise each one appends to a fresh log.
func benchCommitSync(b *testing.B, committers int, think time.Duration, recycled bool) {
	w, _, err := Open(filepath.Join(b.TempDir(), "bench.wal"))
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	if recycled {
		for i := 0; i < 2*b.N+64; i++ {
			w.Append(Record{Txn: uint64(i%committers + 1), Type: RecCommit})
		}
		if err := w.Sync(); err != nil {
			b.Fatal(err)
		}
		if err := w.Reset(); err != nil {
			b.Fatal(err)
		}
	}
	syncs0 := w.Syncs.Load()
	var left atomic.Int64
	left.Store(int64(b.N))
	var wg sync.WaitGroup
	b.ResetTimer()
	for i := 0; i < committers; i++ {
		wg.Add(1)
		go func(txn uint64) {
			defer wg.Done()
			for left.Add(-1) >= 0 {
				lsn, err := w.Append(Record{Txn: txn, Type: RecCommit})
				if err == nil {
					err = w.WaitDurable(lsn)
				}
				if err != nil {
					b.Error(err)
					return
				}
				for t0 := time.Now(); time.Since(t0) < think; {
				}
			}
		}(uint64(i + 1))
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/float64(w.Syncs.Load()-syncs0), "commits/fsync")
}

func BenchmarkCommitSyncSolo(b *testing.B) { benchCommitSync(b, 1, 0, false) }

// The shape of perfbench's embed.commit: two committers, each building its
// next transaction (~50 µs) before it commits again.
func BenchmarkCommitSync2(b *testing.B) { benchCommitSync(b, 2, 50*time.Microsecond, false) }

func BenchmarkCommitSync8(b *testing.B) { benchCommitSync(b, 8, 0, false) }

// The same commits over a recycled generation: beside the appending runs
// above, the difference is what a size change costs an fsync.
func BenchmarkCommitSyncSoloRecycled(b *testing.B) { benchCommitSync(b, 1, 0, true) }

func BenchmarkCommitSync2Recycled(b *testing.B) {
	benchCommitSync(b, 2, 50*time.Microsecond, true)
}
