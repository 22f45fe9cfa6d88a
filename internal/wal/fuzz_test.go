package wal

import (
	"bytes"
	"testing"

	"oodb/internal/model"
)

// FuzzWALRecord: on any bytes decodeRecord either fails with errTorn or
// yields a record that survives encodeRecord → decodeRecord unchanged. The
// seeds are one encoded record of every type, each with every prefix of it.
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
	})
}
