package schema

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"oodb/internal/model"
)

// FuzzDecodeCatalog: on any bytes DecodeCatalog either fails with an error
// wrapping model.ErrCorrupt or yields a catalog whose encoding decodes to
// an equal catalog, and the bytes followed by junk are ErrCorrupt. The seeds are real encodings: the Figure 1 schema with
// a method and a default, a superclass edge to a newer class, and an empty
// catalog, each with every prefix of it.
func FuzzDecodeCatalog(f *testing.F) {
	c, classes := buildVehicleSchema(f)
	if _, err := c.AddMethod(classes["Vehicle"].ID, "describe", nil); err != nil {
		f.Fatal(err)
	}
	if _, _, err := c.AddAttribute(classes["Truck"].ID, AttrSpec{Name: "axles", Domain: ClassInteger, Default: model.Int(2)}); err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{EncodeCatalog(c)}
	fwd := NewCatalog()
	a, _ := fwd.DefineClass("A", nil)
	b, _ := fwd.DefineClass("B", nil)
	if _, err := fwd.AddSuperclass(a.ID, b.ID); err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, EncodeCatalog(fwd), EncodeCatalog(NewCatalog()))
	for _, seed := range seeds {
		for n := 0; n <= len(seed); n++ {
			f.Add(seed[:n]) // every truncation, and the whole image
		}
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		c, err := DecodeCatalog(buf)
		if err != nil {
			if !errors.Is(err, model.ErrCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		again, err := DecodeCatalog(EncodeCatalog(c))
		if err != nil {
			t.Fatalf("re-encoded catalog does not decode: %v", err)
		}
		if got, want := dumpCatalog(again), dumpCatalog(c); got != want {
			t.Fatalf("round trip changed the catalog:\n got %s\nwant %s", got, want)
		}
		if _, err := DecodeCatalog(append(buf[:len(buf):len(buf)], 0xde, 0xad)); !errors.Is(err, model.ErrCorrupt) {
			t.Fatalf("a catalog followed by junk decodes (%v)", err)
		}
	})
}

// dumpCatalog renders what a catalog persists, primitive classes and the
// name index included.
func dumpCatalog(c *Catalog) string {
	var b strings.Builder
	fmt.Fprintf(&b, "next class %d, next attr %d, version %d\n", c.nextClass, c.nextAttr, c.version.Load())
	for _, cl := range c.Classes() {
		fmt.Fprintf(&b, "%d %q (by name %d) supers %v\n", cl.ID, cl.Name, c.byName[cl.Name], cl.Supers)
		for _, a := range cl.OwnAttrs {
			fmt.Fprintf(&b, "  attr %d %q domain %d set %v default %x\n",
				a.ID, a.Name, a.Domain, a.SetValued, model.AppendValue(nil, a.Default))
		}
		for _, m := range cl.OwnMethods {
			fmt.Fprintf(&b, "  method %q\n", m.Name)
		}
	}
	return b.String()
}
