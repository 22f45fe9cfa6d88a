package model

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// rawImage encodes pairs in the order given — unlike EncodeObject it can
// write what only a foreign writer would: ids out of order or repeated.
func rawImage(oid OID, pairs []AttrVal) []byte {
	buf := binary.AppendUvarint(nil, uint64(oid))
	buf = binary.AppendUvarint(buf, uint64(len(pairs)))
	for _, av := range pairs {
		buf = binary.AppendUvarint(buf, uint64(av.ID))
		buf = AppendValue(buf, av.V)
	}
	return buf
}

// readFields reads ids (ascending, no repeats) out of buf in one pass.
func readFields(buf []byte, ids []AttrID) (Image, []Field, error) {
	fields := make([]Field, len(ids))
	for i, id := range ids {
		fields[i] = Field{ID: id, V: Int(-1), OK: true} // stale values the read must clear
	}
	im, err := ReadImage(buf, fields)
	return im, fields, err
}

// checkImage requires the one-pass read of buf to agree with DecodeObject
// on the identity, on every attribute id up to maxID (present and absent
// alike) and on the decoded object.
func checkImage(t *testing.T, buf []byte, maxID AttrID) {
	t.Helper()
	want, err := DecodeObject(buf)
	if err != nil {
		t.Fatalf("DecodeObject: %v", err)
	}
	var ids []AttrID
	for id := AttrID(0); id <= maxID; id++ {
		ids = append(ids, id)
	}
	im, fields, err := readFields(buf, ids)
	if err != nil {
		t.Fatalf("ReadImage rejects what DecodeObject accepts: %v", err)
	}
	if im.OID() != want.OID {
		t.Fatalf("OID %s, want %s", im.OID(), want.OID)
	}
	for _, f := range fields {
		wv, wok := want.Lookup(f.ID)
		if f.OK != wok || Compare(f.V, wv) != 0 || f.V.Kind() != wv.Kind() {
			t.Fatalf("field %d = %v,%v; object has %v,%v", f.ID, f.V, f.OK, wv, wok)
		}
	}
	got, err := im.Decode()
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(EncodeObject(got), EncodeObject(want)) {
		t.Fatalf("Decode differs from DecodeObject")
	}
}

func TestImageMatchesDecodeObject(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for i := 0; i < 2000; i++ {
		oid := MakeOID(ClassID(1+r.Intn(100)), uint64(1+r.Intn(1e6)))
		var pairs []AttrVal
		for id := AttrID(1); id <= 12; id++ {
			if r.Intn(3) > 0 { // a third of the attributes are absent
				pairs = append(pairs, AttrVal{ID: id, V: randValue(r, 3)})
			}
		}
		// As EncodeObject writes it.
		obj := NewObject(oid)
		for _, av := range pairs {
			obj.Set(av.ID, av.V)
		}
		checkImage(t, EncodeObject(obj), 14)

		// The same pairs shuffled, with a repeated id thrown in: an order
		// EncodeObject never writes, which both readers refuse.
		if len(pairs) == 0 {
			continue
		}
		r.Shuffle(len(pairs), func(a, b int) { pairs[a], pairs[b] = pairs[b], pairs[a] })
		pairs = append(pairs, AttrVal{ID: pairs[r.Intn(len(pairs))].ID, V: randValue(r, 1)})
		buf := rawImage(oid, pairs)
		if _, _, err := readFields(buf, []AttrID{pairs[0].ID}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("ReadImage of ids out of order: %v, want ErrCorrupt", err)
		}
		if _, err := DecodeObject(buf); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("DecodeObject of ids out of order: %v, want ErrCorrupt", err)
		}
	}
}

// TestReadImageScalarsDoNotAllocate pins what a heap scan's per-row cost
// rests on: reading integer fields, present or absent, allocates nothing.
func TestReadImageScalarsDoNotAllocate(t *testing.T) {
	obj := NewObject(MakeOID(3, 9))
	obj.Set(2, Int(41))
	obj.Set(5, String("tail"))
	obj.Set(7, Float(2.5))
	buf := EncodeObject(obj)
	fields := []Field{{ID: 1}, {ID: 2}, {ID: 4}, {ID: 7}}
	if _, err := ReadImage(buf, fields); err != nil {
		t.Fatal(err)
	}
	if f := fields[1]; !f.OK || Compare(f.V, Int(41)) != 0 {
		t.Fatalf("field 2 = %v,%v", f.V, f.OK)
	}
	if fields[0].OK || fields[2].OK {
		t.Fatal("an absent attribute was found")
	}
	if f := fields[3]; !f.OK || Compare(f.V, Float(2.5)) != 0 {
		t.Fatalf("field 7 = %v,%v", f.V, f.OK)
	}
	if allocs := testing.AllocsPerRun(100, func() { ReadImage(buf, fields) }); allocs != 0 {
		t.Fatalf("ReadImage of scalar fields allocates %.1f objects", allocs)
	}
}

// corruptSeeds are hand-made bad images and values: the fuzz targets start
// from them and `go test` runs them as plain cases.
var corruptSeeds = [][]byte{
	{},
	{0x80},                            // unterminated OID varint
	{0x01},                            // no pair count
	{0x01, 0x05},                      // five pairs promised, none present
	{0x01, 0x01, 0x02},                // id without a value
	{0x01, 0x01, 0x02, byte(KindInt)}, // int without digits
	{0x01, 0x01, 0x02, byte(KindFloat), 1, 2, 3},                                                     // short float
	{0x01, 0x01, 0x02, byte(KindString), 0x7F, 'a'},                                                  // string longer than the record
	{0x01, 0x01, 0x02, byte(KindString), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, // length 2^64-1
	{0x01, 0x01, 0x02, byte(KindSet), 0x02, byte(KindNull)},                                          // set short a member
	{0x01, 0x01, 0x02, 0x63},                                                                         // unknown kind
	{0x01, 0x02, 0x03, byte(KindNull), 0x02, byte(KindNull)},                                         // ids out of order
	{0x01, 0x02, 0x03, byte(KindNull), 0x03, byte(KindNull)},                                         // an id repeated
	bytes.Repeat([]byte{byte(KindSet), 0x01}, maxDecodeDepth+8),                                      // nesting bomb
}

func fuzzSeeds(f *testing.F) {
	for _, s := range corruptSeeds {
		f.Add(s)
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		obj := NewObject(MakeOID(4, uint64(i+1)))
		for id := AttrID(1); id < 6; id++ {
			obj.Set(id, randValue(r, 2))
		}
		f.Add(EncodeObject(obj))
		f.Add(AppendValue(nil, randValue(r, 3)))
	}
}

// FuzzImage: on any bytes ReadImage and DecodeObject agree on whether the
// image is sound — failing only with ErrCorrupt — and a sound image's
// fields read, for every requested id (present, absent, 0, 1<<31), the
// value and presence the decoded object's Lookup gives.
func FuzzImage(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, buf []byte) {
		buf = bytes.Clone(buf) // scribbled over below
		obj, derr := DecodeObject(buf)
		probe := []AttrID{0, 1, 1 << 31}
		if derr == nil {
			for _, av := range obj.AttrVals() {
				probe = append(probe, av.ID, av.ID+1)
			}
		}
		slices.Sort(probe)
		ids := slices.Compact(probe)
		im, fields, rerr := readFields(buf, ids)
		if (rerr == nil) != (derr == nil) {
			t.Fatalf("ReadImage err %v, DecodeObject err %v", rerr, derr)
		}
		if rerr != nil {
			if !errors.Is(rerr, ErrCorrupt) || !errors.Is(derr, ErrCorrupt) {
				t.Fatalf("untyped error: %v / %v", rerr, derr)
			}
			return
		}
		if im.OID() != obj.OID {
			t.Fatalf("OID %s, want %s", im.OID(), obj.OID)
		}
		for _, f := range fields {
			wv, wok := obj.Lookup(f.ID)
			if f.OK != wok || f.V.Kind() != wv.Kind() || (wok && !bytes.Equal(AppendValue(nil, f.V), AppendValue(nil, wv))) {
				t.Fatalf("field %d = %v,%v; object has %v,%v", f.ID, f.V, f.OK, wv, wok)
			}
		}
		// A decoded object owns its payloads: the buffer it came from may
		// be rewritten (a page reused) without changing it.
		want := EncodeObject(obj)
		for i := range buf {
			buf[i] ^= 0xA5
		}
		if got := EncodeObject(obj); !bytes.Equal(got, want) {
			t.Fatalf("object changed with the buffer it was decoded from: %x, want %x", got, want)
		}
	})
}

// FuzzDecodeValue: DecodeValue either fails with ErrCorrupt or consumes a
// prefix that skipValue measures the same and that re-encodes to a value
// decoding equal.
func FuzzDecodeValue(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, buf []byte) {
		v, n, err := DecodeValue(buf)
		sn, serr := skipValue(buf, 0)
		if (err == nil) != (serr == nil) {
			t.Fatalf("DecodeValue err %v, skipValue err %v", err, serr)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) || n != 0 {
				t.Fatalf("DecodeValue: n=%d err=%v", n, err)
			}
			return
		}
		if n != sn || n > len(buf) {
			t.Fatalf("consumed %d, skip measured %d, of %d bytes", n, sn, len(buf))
		}
		again, m, err := DecodeValue(AppendValue(nil, v))
		if err != nil || m == 0 || Compare(again, v) != 0 {
			t.Fatalf("re-encoded value decodes to %v (%v), want %v", again, err, v)
		}
	})
}
