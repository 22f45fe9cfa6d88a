package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"testing"

	"oodb/internal/model"
)

// Recovery of a recycled log: a generation's frames overwrite the blocks of
// the generations before it, so the file behind the tail holds older frames
// that are checksum-valid. These tests write such files and check that
// recovery reads exactly the current generation.

// sameSize returns a record whose frame has the same length for every i
// below 128 and every LSN of the same varint width, so consecutive
// generations line their frames up at the same offsets.
func sameSize(i int) Record {
	return Record{Txn: uint64(i%100 + 1), Type: RecPut, OID: model.MakeOID(20, uint64(i%100+1)), After: bytes.Repeat([]byte{byte(i)}, 40)}
}

func appendSynced(t *testing.T, w *WAL, from, n int) []uint64 {
	t.Helper()
	var lsns []uint64
	for i := from; i < from+n; i++ {
		lsn, err := w.Append(sameSize(i))
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	return lsns
}

func reopen(t *testing.T, path string) (*WAL, []Record) {
	t.Helper()
	w, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w, recs
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// framesAt parses the frames laid end to end from off, checksum-valid
// ones only, stopping at the first that is not.
func framesAt(t *testing.T, path string, off int64) []Record {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []Record
	for off+8 <= int64(len(data)) {
		size := int64(binary.BigEndian.Uint32(data[off:]))
		if size == 0 || off+8+size > int64(len(data)) {
			break
		}
		frame := data[off+8 : off+8+size]
		if crc32.Checksum(frame, crcTable) != binary.BigEndian.Uint32(data[off+4:]) {
			break
		}
		rec, err := decodeRecord(frame)
		if err != nil {
			break
		}
		out = append(out, rec)
		off += 8 + size
	}
	return out
}

// twoGenerations writes a headed generation of n frames, resets, and
// writes k frames of the next one over it, all of one frame length. It
// returns the log's path, the first generation's LSNs and the second's.
func twoGenerations(t *testing.T, n, k int) (string, []uint64, []uint64) {
	t.Helper()
	w, _, path := openTestWAL(t)
	appendSynced(t, w, 0, 3)
	if err := w.Reset(); err != nil { // gives the log its header
		t.Fatal(err)
	}
	old := appendSynced(t, w, 0, n)
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	cur := appendSynced(t, w, n, k)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path, old, cur
}

func TestResetKeepsTheFileAndRecoversNothing(t *testing.T) {
	w, _, path := openTestWAL(t)
	appendSynced(t, w, 0, 3)
	if err := w.Reset(); err != nil { // gives the log its header
		t.Fatal(err)
	}
	lsns := appendSynced(t, w, 0, 10)
	before := fileSize(t, path)
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, path); got < before {
		t.Fatalf("Reset shrank the log from %d to %d bytes", before, got)
	}
	if size := w.Size(); size != 0 {
		t.Fatalf("Size after Reset = %d, want 0", size)
	}
	w.Close()
	if got := framesAt(t, path, headerSize); len(got) == 0 {
		t.Fatal("the test needs stale frames behind the header")
	}
	w2, recs := reopen(t, path)
	if len(recs) != 0 {
		t.Fatalf("reopen after Reset recovered %d records: %+v", len(recs), recs)
	}
	if lsn, _ := w2.Append(sameSize(0)); lsn != lsns[9]+1 {
		t.Fatalf("first LSN after reopen = %d, want %d (the header's)", lsn, lsns[9]+1)
	}
}

func TestFramesAfterResetRecoverExactly(t *testing.T) {
	for _, k := range []int{0, 1, 2, 7} {
		path, old, cur := twoGenerations(t, 10, k)
		// The frame behind the new tail is an old one: checksum-valid, of
		// the same length, at a frame boundary.
		stale := framesAt(t, path, headerSize)
		if len(stale) != 10 || stale[k].LSN != old[k] {
			t.Fatalf("k=%d: the file holds %d frames from the header on, want 10 ending with the old generation's", k, len(stale))
		}
		_, recs := reopen(t, path)
		if len(recs) != k {
			t.Fatalf("k=%d: recovered %d records, want %d", k, len(recs), k)
		}
		for i, r := range recs {
			if r.LSN != cur[i] {
				t.Fatalf("k=%d: record %d has LSN %d, want %d", k, i, r.LSN, cur[i])
			}
		}
	}
}

func TestLSNsAfterReopenStayAboveStaleFrames(t *testing.T) {
	path, old, cur := twoGenerations(t, 10, 2)
	w, _ := reopen(t, path)
	lsn, err := w.Append(sameSize(0))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != cur[len(cur)-1]+1 || lsn <= old[len(old)-1] {
		t.Fatalf("LSN after reopen = %d; current tail %d, stale frames up to %d", lsn, cur[len(cur)-1], old[len(old)-1])
	}
}

// TestSurvivorPastTornFrameIsNotReplayed: a crash can tear one frame of a
// generation and keep a later one whole. Open cuts the file at the torn
// frame; if it did not, the next frame written there, of the same length,
// would line the survivor up as its successor, LSN and all.
func TestSurvivorPastTornFrameIsNotReplayed(t *testing.T) {
	w, _, path := openTestWAL(t)
	appendSynced(t, w, 0, 1)
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	lsns := appendSynced(t, w, 0, 5)
	w.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frame := (int64(len(data)) - headerSize) / 5
	third := headerSize + 2*frame
	clear(data[third : third+frame]) // the third frame is torn; the fourth and fifth survive
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want the 2 before the torn one", len(recs))
	}
	if lsn, _ := w2.Append(sameSize(2)); lsn != lsns[2] {
		t.Fatalf("LSN after reopen = %d, want %d", lsn, lsns[2])
	}
	w2.Close()
	_, recs = reopen(t, path)
	if len(recs) != 3 {
		t.Fatalf("recovered %d records, want 3: the survivor (LSN %d) came back", len(recs), lsns[3])
	}
}

func TestHeaderlessLogRecoversAndIsConverted(t *testing.T) {
	// A log that has never been Reset — a fresh one, or one an older build
	// wrote, whose LSNs need not start at 1 — has no header and reads by
	// the same frames-from-offset-0 rule.
	path := t.TempDir() + "/old.wal"
	var file []byte
	for i := 0; i < 4; i++ {
		rec := sameSize(i)
		rec.LSN = uint64(57 + i)
		file = appendFrame(file, rec)
	}
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	w, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || recs[0].LSN != 57 || recs[3].LSN != 60 {
		t.Fatalf("headerless log recovered %+v", recs)
	}
	if size := w.Size(); size != int64(len(file)) {
		t.Fatalf("Size = %d, want the %d frame bytes", size, len(file))
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	appendSynced(t, w, 0, 1)
	w.Close()
	data, _ := os.ReadFile(path)
	if !bytes.HasPrefix(data, headerMagic[:]) {
		t.Fatal("Reset did not give the log a header")
	}
	_, recs = reopen(t, path)
	if len(recs) != 1 || recs[0].LSN != 61 {
		t.Fatalf("converted log recovered %+v, want the one record with LSN 61", recs)
	}
}

func TestTornHeaderRecoversNothing(t *testing.T) {
	for _, tear := range []struct {
		name string
		off  int
	}{
		{"lsn", 9},
		{"crc", 17},
	} {
		path, _, cur := twoGenerations(t, 6, 3)
		data, _ := os.ReadFile(path)
		data[tear.off] ^= 0xFF
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, recs, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 0 {
			t.Fatalf("%s torn: recovered %d records from a log whose header is torn", tear.name, len(recs))
		}
		if got := fileSize(t, path); got != 0 {
			t.Fatalf("%s torn: the log holds %d bytes, want none left to replay", tear.name, got)
		}
		appendSynced(t, w, 0, 2)
		w.Close()
		_, recs = reopen(t, path)
		if len(recs) != 2 || recs[0].Txn != sameSize(0).Txn {
			t.Fatalf("%s torn: after two new frames recovered %+v (the last generation ended at LSN %d)", tear.name, recs, cur[len(cur)-1])
		}
	}
}

func TestResetCutsOnlyALongFile(t *testing.T) {
	big := bytes.Repeat([]byte{7}, 64<<10)
	w, _, path := openTestWAL(t)
	for i := 0; i < 40; i++ { // a 2.5 MiB generation
		w.Append(Record{Txn: 1, Type: RecPageImage, OID: model.OID(i), After: big})
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	long := fileSize(t, path)
	appendSynced(t, w, 0, 3)
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, path); got >= long || got > headerSize+3*100 {
		t.Fatalf("after a 3-frame generation the %d-byte log is %d bytes, want it cut to that generation", long, got)
	}
	// A file under minShrink keeps its blocks whatever the generation.
	appendSynced(t, w, 0, 100)
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	kept := fileSize(t, path)
	appendSynced(t, w, 0, 1)
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, path); got != kept {
		t.Fatalf("a %d-byte log became %d bytes at Reset", kept, got)
	}
	w.Close()
}
