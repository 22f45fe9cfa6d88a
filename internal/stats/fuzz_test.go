package stats

import (
	"errors"
	"testing"

	"oodb/internal/model"
)

// FuzzDecodeRegistry: on any bytes DecodeRegistry either fails with an
// error wrapping model.ErrCorrupt or yields a registry whose encoding
// decodes to an equal registry (one that encodes to the same bytes), and
// the bytes followed by junk are ErrCorrupt. The
// seeds are real encodings: collected statistics of every value kind, and
// an empty registry, each with every prefix of it.
func FuzzDecodeRegistry(f *testing.F) {
	r := NewRegistry()
	c := NewCollector(16)
	for i := 0; i < 40; i++ {
		o := model.NewObject(model.MakeOID(16, uint64(i+1)))
		o.Set(1, model.Int(int64(i)))
		o.Set(2, model.String(string(rune('a'+i%5))))
		o.Set(3, model.Float(float64(i)/3))
		o.Set(4, model.Bool(i%2 == 0))
		o.Set(5, model.Ref(model.MakeOID(17, uint64(i))))
		c.Observe(o, 64+i)
	}
	r.Put(c.Finalize())
	r.Put(NewCollector(17).Finalize())
	seeds := [][]byte{r.Encode(), NewRegistry().Encode()}
	for _, seed := range seeds {
		for n := 0; n <= len(seed); n++ {
			f.Add(seed[:n]) // every truncation, and the whole image
		}
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		r, err := DecodeRegistry(buf)
		if err != nil {
			if !errors.Is(err, model.ErrCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		enc := r.Encode()
		again, err := DecodeRegistry(enc)
		if err != nil {
			t.Fatalf("re-encoded registry does not decode: %v", err)
		}
		if string(again.Encode()) != string(enc) {
			t.Fatalf("round trip changed the registry:\n got %x\nwant %x", again.Encode(), enc)
		}
		if _, err := DecodeRegistry(append(buf[:len(buf):len(buf)], 0xde, 0xad)); !errors.Is(err, model.ErrCorrupt) {
			t.Fatalf("a registry followed by junk decodes (%v)", err)
		}
	})
}
