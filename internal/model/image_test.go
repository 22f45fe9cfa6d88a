package model

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
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

// checkImage requires the view of buf to agree with DecodeObject on the
// identity, on every attribute id up to maxID (present and absent alike)
// and on the decoded object.
func checkImage(t *testing.T, buf []byte, maxID AttrID) {
	t.Helper()
	want, err := DecodeObject(buf)
	if err != nil {
		t.Fatalf("DecodeObject: %v", err)
	}
	im, err := ViewImage(buf)
	if err != nil {
		t.Fatalf("ViewImage rejects what DecodeObject accepts: %v", err)
	}
	if im.OID() != want.OID {
		t.Fatalf("OID %s, want %s", im.OID(), want.OID)
	}
	for id := AttrID(0); id <= maxID; id++ {
		gv, gok := im.Lookup(id)
		wv, wok := want.Lookup(id)
		if gok != wok || Compare(gv, wv) != 0 || gv.Kind() != wv.Kind() {
			t.Fatalf("Lookup(%d) = %v,%v; object has %v,%v", id, gv, gok, wv, wok)
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
		if _, err := ViewImage(buf); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("ViewImage of ids out of order: %v, want ErrCorrupt", err)
		}
		if _, err := DecodeObject(buf); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("DecodeObject of ids out of order: %v, want ErrCorrupt", err)
		}
	}
}

// TestImageLookupStopsEarly pins the skip: a lookup of a leading attribute
// never touches the bytes behind it.
func TestImageLookupStopsEarly(t *testing.T) {
	obj := NewObject(MakeOID(3, 9))
	obj.Set(2, Int(41))
	obj.Set(5, String("tail"))
	buf := EncodeObject(obj)
	im, err := ViewImage(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(buf) - 5; i < len(buf); i++ {
		buf[i] = 0xFF // wreck the string behind the view's back
	}
	if v, ok := im.Lookup(2); !ok || Compare(v, Int(41)) != 0 {
		t.Fatalf("Lookup(2) = %v,%v", v, ok)
	}
	if _, ok := im.Lookup(1); ok {
		t.Fatal("Lookup(1) found an absent attribute")
	}
	if _, ok := im.Lookup(4); ok {
		t.Fatal("Lookup(4) found an absent attribute")
	}
	if allocs := testing.AllocsPerRun(100, func() { im.Lookup(2) }); allocs != 0 {
		t.Fatalf("Lookup of an integer allocates %.1f objects", allocs)
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

// FuzzImage: on any bytes ViewImage and DecodeObject agree on whether the
// image is sound — failing only with ErrCorrupt — and a sound image reads
// the same through the view as through the object.
func FuzzImage(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, buf []byte) {
		im, verr := ViewImage(buf)
		obj, derr := DecodeObject(buf)
		if (verr == nil) != (derr == nil) {
			t.Fatalf("ViewImage err %v, DecodeObject err %v", verr, derr)
		}
		if verr != nil {
			if !errors.Is(verr, ErrCorrupt) || !errors.Is(derr, ErrCorrupt) {
				t.Fatalf("untyped error: %v / %v", verr, derr)
			}
			return
		}
		ids := []AttrID{0, 1, 1 << 31}
		for _, av := range obj.AttrVals() {
			ids = append(ids, av.ID, av.ID+1)
		}
		for _, id := range ids {
			gv, gok := im.Lookup(id)
			wv, wok := obj.Lookup(id)
			if gok != wok || gv.Kind() != wv.Kind() || (gok && !bytes.Equal(AppendValue(nil, gv), AppendValue(nil, wv))) {
				t.Fatalf("Lookup(%d) = %v,%v; object has %v,%v", id, gv, gok, wv, wok)
			}
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
