package index

import (
	"errors"
	"math/rand"
	"testing"

	"oodb/internal/model"
)

// FuzzDecodeDefs: on any bytes DecodeDefs either fails with an error
// wrapping model.ErrCorrupt or returns definitions, without panicking, and
// then the bytes followed by junk are ErrCorrupt. The
// seeds are real encodings: a hierarchy index, a nested-path index, and no
// index at all, each with every prefix of it.
func FuzzDecodeDefs(f *testing.F) {
	w := newVehicleWorld(f)
	seeds := [][]byte{EncodeDefs(w.mgr)}
	if _, err := w.mgr.Create("weight", w.vehicle.ID, []model.AttrID{w.weight}, true); err != nil {
		f.Fatal(err)
	}
	if _, err := w.mgr.Create("maker_loc", w.vehicle.ID, []model.AttrID{w.manufacturer, w.location}, false); err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, EncodeDefs(w.mgr))
	for _, seed := range seeds {
		for n := 0; n <= len(seed); n++ {
			f.Add(seed[:n]) // every truncation, and the whole image
		}
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		_, err := DecodeDefs(buf)
		if err != nil {
			if !errors.Is(err, model.ErrCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if _, err := DecodeDefs(append(buf[:len(buf):len(buf)], 0xde, 0xad)); !errors.Is(err, model.ErrCorrupt) {
			t.Fatalf("definitions followed by junk decode (%v)", err)
		}
	})
}

// FuzzTreeSummary drives a tree with inserts and deletes read from fuzz
// bytes, three bytes an operation — the kind, the key (a small integer or
// one of summaryValues) and the posting's class and sequence — and checks
// the summaries after every 64 operations and at the end, as
// TestTreeSummaryMatchesRecount does. The seeds include a long run of
// inserts that splits leaves.
func FuzzTreeSummary(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 5, 1, 0, 5, 2, 3, 5, 1, 1, 250, 7, 3, 250, 7})
	long := make([]byte, 3*600)
	rand.New(rand.NewSource(1)).Read(long)
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		value := func(b byte) model.Value {
			if int(b) >= 256-len(summaryValues) {
				return summaryValues[int(b)-(256-len(summaryValues))]
			}
			return model.Int(int64(b) - 120)
		}
		var vals []model.Value
		for b := 0; b < 256; b++ {
			vals = append(vals, value(byte(b)))
		}
		r := rand.New(rand.NewSource(int64(len(data))))
		classSets := [][]model.ClassID{nil, {20}, {21, 22}}
		tr := NewTree()
		for i := 0; i+3 <= len(data); i += 3 {
			key := model.Key(value(data[i+1]))
			oid := model.MakeOID(model.ClassID(20+data[i+2]%3), uint64(1+data[i+2]/3%16))
			if data[i]%4 == 3 {
				tr.Delete(key, oid)
			} else {
				tr.Insert(key, oid)
			}
			if (i/3)%64 == 63 {
				checkSummaries(t, tr, randomProbes(r, vals, 8), classSets)
			}
		}
		checkSummaries(t, tr, randomProbes(r, vals, 8), classSets)
	})
}
