package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"testing"

	"oodb/internal/model"
)

// FuzzWALRecord: on any bytes decodeRecord either fails with errTorn or
// yields a record that survives encodeRecord → decodeRecord unchanged, and
// whose encoding followed by junk is torn. The seeds are one encoded record
// of every type, each with every prefix of it.
func FuzzWALRecord(f *testing.F) {
	img := []byte("image-bytes")
	var seeds [][]byte
	for _, rec := range []Record{
		{LSN: 1, Txn: 7, Type: RecBegin},
		{LSN: 2, Txn: 7, Type: RecCommit, Epoch: 42},
		{LSN: 3, Txn: 8, Type: RecAbort},
		{LSN: 4, Txn: 7, Type: RecPut, OID: model.MakeOID(16, 1), After: img},
		{LSN: 5, Txn: 7, Type: RecDelete, OID: model.MakeOID(16, 1), Before: img},
		{LSN: 6, Type: RecPageImage, OID: 9, After: bytes.Repeat([]byte{0xAB}, 64)},
		{LSN: 7, Type: RecCompaction, OID: 16},
	} {
		seeds = append(seeds, encodeRecord(rec))
	}
	for _, seed := range seeds {
		for n := 0; n <= len(seed); n++ {
			f.Add(seed[:n]) // every truncation, and the whole image
		}
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		rec, err := decodeRecord(buf)
		if err != nil {
			if err != errTorn {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		again, err := decodeRecord(encodeRecord(rec))
		if err != nil {
			t.Fatalf("re-encoded %+v does not decode: %v", rec, err)
		}
		if again.LSN != rec.LSN || again.Txn != rec.Txn || again.Type != rec.Type ||
			again.OID != rec.OID || again.Epoch != rec.Epoch ||
			!bytes.Equal(again.Before, rec.Before) || !bytes.Equal(again.After, rec.After) {
			t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", again, rec)
		}
		if _, err := decodeRecord(append(encodeRecord(rec), 0xde, 0xad)); err != errTorn {
			t.Fatalf("a record followed by junk decodes (%v)", err)
		}
	})
}

// FuzzWALRecover writes arbitrary bytes as a log file, behind a generation
// header naming first when header is set, and opens it. Open never panics;
// the records it recovers carry consecutive LSNs, from the header's when
// there is one; opening the file again returns the same records; and after
// a Reset and a reopen no record comes back and the next LSN is above every
// one recovered. The seeds are two-generation files whose stale frames
// have valid checksums, with and without their header, and prefixes of a
// headerless log.
func FuzzWALRecover(f *testing.F) {
	for _, k := range []int{0, 2, 5} {
		dir := f.TempDir()
		w, _, err := Open(dir + "/seed.wal")
		if err != nil {
			f.Fatal(err)
		}
		for gen, n := range []int{3, 6, k} {
			if gen > 0 {
				if err := w.Reset(); err != nil {
					f.Fatal(err)
				}
			}
			for i := 0; i < n; i++ {
				w.Append(sameSize(i))
			}
			if err := w.Sync(); err != nil {
				f.Fatal(err)
			}
		}
		w.Close()
		data, err := os.ReadFile(dir + "/seed.wal")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data[headerSize:], binary.BigEndian.Uint64(data[8:]), true)
		f.Add(data, uint64(0), false)
		if k == 5 {
			f.Add(data[headerSize:], uint64(1), true) // an LSN no frame continues
			f.Add(data[:headerSize-1], uint64(0), false)
		}
	}
	var headerless []byte
	for i := 0; i < 4; i++ {
		rec := sameSize(i)
		rec.LSN = uint64(i + 1)
		headerless = appendFrame(headerless, rec)
	}
	for n := 0; n <= len(headerless); n += 7 {
		f.Add(headerless[:n], uint64(0), false)
	}
	f.Fuzz(func(t *testing.T, data []byte, first uint64, header bool) {
		var file []byte
		if header {
			file = appendHeader(nil, first)
		}
		file = append(file, data...)
		path := t.TempDir() + "/f.wal"
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		w, recs, err := Open(path)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		for i, r := range recs {
			if (i > 0 && r.LSN != recs[i-1].LSN+1) || (i == 0 && header && r.LSN != first) {
				w.Close()
				t.Fatalf("record %d has LSN %d after %+v (header %v, first %d)", i, r.LSN, recs[:i], header, first)
			}
		}
		last, err := w.Append(Record{Txn: 1, Type: RecBegin})
		if err != nil {
			t.Fatal(err)
		}
		w.Close()

		w, again, err := Open(path)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if len(again) != len(recs)+1 {
			w.Close()
			t.Fatalf("reopen recovered %d records, want %d and the one appended", len(again), len(recs))
		}
		for i, r := range recs {
			if g := again[i]; g.LSN != r.LSN || g.Txn != r.Txn || g.Type != r.Type || g.OID != r.OID ||
				g.Epoch != r.Epoch || !bytes.Equal(g.Before, r.Before) || !bytes.Equal(g.After, r.After) {
				w.Close()
				t.Fatalf("reopen changed record %d: %+v, was %+v", i, g, r)
			}
		}
		if err := w.Reset(); err != nil {
			t.Fatal(err)
		}
		w.Close()
		w, after, err := Open(path)
		if err != nil {
			t.Fatalf("open after Reset: %v", err)
		}
		defer w.Close()
		if len(after) != 0 {
			t.Fatalf("after Reset and a reopen %d records came back: %+v", len(after), after)
		}
		if next, _ := w.Append(Record{Txn: 2, Type: RecBegin}); next != last+1 {
			t.Fatalf("LSN after Reset and a reopen = %d, want %d", next, last+1)
		}
	})
}

// appendFrame appends rec as a frame, LSN as given.
func appendFrame(buf []byte, rec Record) []byte {
	frame := encodeRecord(rec)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(frame)))
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(frame, crcTable))
	return append(buf, frame...)
}
