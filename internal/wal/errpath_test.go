package wal_test

// Error-path coverage for the log, driven through the fault-injection
// layer (external test package: internal/fault wraps wal.File, so these
// tests cannot live inside package wal).

import (
	"errors"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"oodb/internal/fault"
	"oodb/internal/model"
	"oodb/internal/wal"
)

func rec(n int64) wal.Record {
	return wal.Record{Txn: 1, Type: wal.RecPut, OID: model.OID(n), After: []byte("payload")}
}

// TestAppendShortWriteTruncatedOnReopen: a short write during the flush
// leaves a partial frame on disk; the error reaches the committer, and the
// next open truncates the torn tail so only fully-written records survive.
func TestAppendShortWriteTruncatedOnReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.wal")
	inj := fault.NewInjector(fault.Schedule{Seed: 5})
	w, recs, err := wal.OpenWith(path, fault.WrapWAL(inj))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh log scanned %d records", len(recs))
	}
	if _, err := w.Append(rec(1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	inj.FailAt(fault.OpWALWrite, 1)
	if _, err := w.Append(rec(2)); err != nil {
		t.Fatal(err) // buffered: the failure surfaces at flush time
	}
	if err := w.Sync(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("sync over short write: err = %v, want ErrInjected", err)
	}
	w.Close()

	w2, recs, err := wal.Open(path)
	if err != nil {
		t.Fatalf("reopen after short write: %v", err)
	}
	defer w2.Close()
	if len(recs) != 1 || recs[0].OID != 1 {
		t.Fatalf("recovered %d records (want just the synced one): %+v", len(recs), recs)
	}
	// The log accepts appends again from the clean boundary.
	if _, err := w2.Append(rec(3)); err != nil {
		t.Fatal(err)
	}
	if err := w2.Sync(); err != nil {
		t.Fatal(err)
	}
	_, recs3, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs3) != 2 || recs3[1].OID != 3 {
		t.Fatalf("after repair: recovered %+v", recs3)
	}
}

// failingSyncFile makes fsync fail on demand while writes keep working —
// the classic full-disk / EIO-on-fsync device.
type failingSyncFile struct {
	wal.File
	fail atomic.Bool
}

var errDeviceSync = errors.New("device: fsync failed")

func (f *failingSyncFile) Sync() error {
	if f.fail.Load() {
		return errDeviceSync
	}
	return f.File.Sync()
}

// TestSyncFailurePropagatesToAllCommitters: when the shared fsync
// fails, every committer batched behind it must see the error — a silent
// nil would acknowledge a commit that never became durable.
func TestSyncFailurePropagatesToAllCommitters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.wal")
	var ff *failingSyncFile
	w, _, err := wal.OpenWith(path, func(under wal.File) wal.File {
		ff = &failingSyncFile{File: under}
		return ff
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	if _, err := w.Append(rec(1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("healthy group commit: %v", err)
	}

	ff.fail.Store(true)
	const committers = 8
	errs := make([]error, committers)
	var wg sync.WaitGroup
	for i := 0; i < committers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := w.Append(rec(int64(10 + i))); err != nil {
				errs[i] = err
				return
			}
			errs[i] = w.Sync()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, errDeviceSync) {
			t.Fatalf("committer %d: err = %v, want the device fsync error", i, err)
		}
	}
}

// TestFsyncErrorLatchesWAL pins the fsyncgate fix: after one failed fsync
// the kernel may already have dropped the dirty pages, so a later fsync
// that reports success proves nothing. The log must latch into a sticky
// failed state — even after the device "recovers", every Append and Sync
// keeps returning the latched error (wrapping both ErrFailed and the
// original cause) — and only a reopen, which re-reads the durable prefix,
// clears it.
func TestFsyncErrorLatchesWAL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.wal")
	var ff *failingSyncFile
	w, _, err := wal.OpenWith(path, func(under wal.File) wal.File {
		ff = &failingSyncFile{File: under}
		return ff
	})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := w.Append(rec(1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}

	ff.fail.Store(true)
	if _, err := w.Append(rec(2)); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); !errors.Is(err, errDeviceSync) || !errors.Is(err, wal.ErrFailed) {
		t.Fatalf("failed sync: err = %v, want ErrFailed wrapping the device error", err)
	}

	// The device "recovers" — exactly the fsyncgate trap. The latch must
	// hold anyway.
	ff.fail.Store(false)
	if _, err := w.Append(rec(3)); !errors.Is(err, wal.ErrFailed) {
		t.Fatalf("Append after latch: err = %v, want ErrFailed", err)
	}
	if err := w.Sync(); !errors.Is(err, wal.ErrFailed) {
		t.Fatalf("Sync after latch: err = %v, want ErrFailed", err)
	}
	if err := w.Reset(); !errors.Is(err, wal.ErrFailed) {
		t.Fatalf("Reset after latch: err = %v, want ErrFailed", err)
	}
	if err := w.Err(); !errors.Is(err, errDeviceSync) {
		t.Fatalf("Err() = %v, want the original cause preserved", err)
	}
	if err := w.Close(); !errors.Is(err, wal.ErrFailed) {
		t.Fatalf("Close of latched log: err = %v, want ErrFailed", err)
	}

	// Reopen recovers a clean prefix: the synced record is guaranteed; the
	// record behind the failed fsync is indeterminate (its flush reached
	// the file, the fsync never vouched for it); the latched append (3)
	// must NOT appear — it was refused.
	w2, recs, err := wal.Open(path)
	if err != nil {
		t.Fatalf("reopen after latch: %v", err)
	}
	defer w2.Close()
	if len(recs) < 1 || len(recs) > 2 || recs[0].OID != 1 {
		t.Fatalf("recovered %+v, want the durable record (+ optionally the indeterminate one)", recs)
	}
	for _, r := range recs {
		if r.OID == 3 {
			t.Fatalf("latched append leaked into the log: %+v", recs)
		}
	}
	if _, err := w2.Append(rec(4)); err != nil {
		t.Fatal(err)
	}
	if err := w2.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestResetRacesGroupCommitCrash: checkpoint truncation racing committers
// racing a crash. Nothing here asserts which records survive — the assert
// is that nothing deadlocks or panics (run under -race) and that the log
// scans cleanly afterwards.
func TestResetRacesGroupCommitCrash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.wal")
	inj := fault.NewInjector(fault.Schedule{Seed: 13, CrashAt: 60})
	w, _, err := wal.OpenWith(path, fault.WrapWAL(inj))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if _, err := w.Append(rec(int64(g*1000 + i))); err != nil {
					return
				}
				if err := w.Sync(); err != nil {
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if err := w.Reset(); err != nil {
				return
			}
		}
	}()
	wg.Wait()
	if !inj.Crashed() {
		t.Fatal("workers stopped before the crash fired")
	}

	if _, _, err := wal.Open(path); err != nil {
		t.Fatalf("log does not scan cleanly after crash: %v", err)
	}
}
