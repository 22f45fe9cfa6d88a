package index

import (
	"errors"
	"testing"

	"oodb/internal/model"
)

// FuzzDecodeDefs: on any bytes DecodeDefs either fails with an error
// wrapping model.ErrCorrupt or returns definitions, without panicking. The
// seeds are real encodings: a hierarchy index, a nested-path index, and no
// index at all.
func FuzzDecodeDefs(f *testing.F) {
	w := newVehicleWorld(f)
	f.Add(EncodeDefs(w.mgr))
	if _, err := w.mgr.Create("weight", w.vehicle.ID, []model.AttrID{w.weight}, true); err != nil {
		f.Fatal(err)
	}
	if _, err := w.mgr.Create("maker_loc", w.vehicle.ID, []model.AttrID{w.manufacturer, w.location}, false); err != nil {
		f.Fatal(err)
	}
	f.Add(EncodeDefs(w.mgr))
	f.Fuzz(func(t *testing.T, buf []byte) {
		if _, err := DecodeDefs(buf); err != nil && !errors.Is(err, model.ErrCorrupt) {
			t.Fatalf("untyped error: %v", err)
		}
	})
}
