package schema

import (
	"encoding/binary"
	"fmt"

	"oodb/internal/model"
)

// Catalog persistence. The catalog is serialized as a single binary blob
// stored in the database's catalog segment and logged through the WAL like
// any other write. Method implementations are process-local and are NOT
// serialized; only signatures survive, and applications re-register bodies
// after open (see MethodImpl).

const catalogMagic = 0x4B43_4154 // "KCAT"

// EncodeCatalog serializes the full catalog.
func EncodeCatalog(c *Catalog) []byte {
	c.mu.RLock()
	defer c.mu.RUnlock()
	buf := binary.BigEndian.AppendUint32(nil, catalogMagic)
	buf = binary.AppendUvarint(buf, uint64(c.nextClass))
	buf = binary.AppendUvarint(buf, uint64(c.nextAttr))
	buf = binary.AppendUvarint(buf, c.version.Load())

	classes := make([]*Class, 0, len(c.classes))
	for _, cl := range c.classes {
		if IsPrimitive(cl.ID) {
			continue // primitives are re-installed by NewCatalog
		}
		classes = append(classes, cl)
	}
	// Deterministic order (ascending id) so identical catalogs encode
	// identically.
	for i := 1; i < len(classes); i++ {
		for j := i; j > 0 && classes[j].ID < classes[j-1].ID; j-- {
			classes[j], classes[j-1] = classes[j-1], classes[j]
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(classes)))
	for _, cl := range classes {
		buf = appendString(buf, cl.Name)
		buf = binary.AppendUvarint(buf, uint64(cl.ID))
		buf = binary.AppendUvarint(buf, uint64(len(cl.Supers)))
		for _, s := range cl.Supers {
			buf = binary.AppendUvarint(buf, uint64(s))
		}
		buf = binary.AppendUvarint(buf, uint64(len(cl.OwnAttrs)))
		for _, a := range cl.OwnAttrs {
			buf = appendString(buf, a.Name)
			buf = binary.AppendUvarint(buf, uint64(a.ID))
			buf = binary.AppendUvarint(buf, uint64(a.Domain))
			var flags byte // bits 0-3: SetValued, Composite, Exclusive, Guarded
			for i, on := range [...]bool{a.SetValued, a.Composite, a.Exclusive, a.Guarded} {
				if on {
					flags |= 1 << i
				}
			}
			buf = append(buf, flags)
			buf = model.AppendValue(buf, a.Default)
		}
		buf = binary.AppendUvarint(buf, uint64(len(cl.OwnMethods)))
		for _, m := range cl.OwnMethods {
			buf = appendString(buf, m.Name)
		}
	}
	return buf
}

// DecodeCatalog reconstructs a catalog from EncodeCatalog output. Method
// implementations are nil until re-registered. Every error wraps
// model.ErrCorrupt.
func DecodeCatalog(buf []byte) (*Catalog, error) {
	if len(buf) < 4 || binary.BigEndian.Uint32(buf) != catalogMagic {
		return nil, fmt.Errorf("schema: bad catalog magic: %w", model.ErrCorrupt)
	}
	r := model.NewReader(buf[4:], model.ErrCorrupt)
	c := NewCatalog()
	c.nextClass = model.ClassID(r.Uvarint())
	c.nextAttr = model.AttrID(r.Uvarint())
	version := r.Uvarint()

	n := r.Count()
	var decoded []*Class
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		name := r.ReadString()
		id := model.ClassID(r.Uvarint())
		supers := make([]model.ClassID, r.Count())
		for j := range supers {
			supers[j] = model.ClassID(r.Uvarint())
		}
		cl := &Class{ID: id, Name: name, Supers: supers}
		na := r.Count()
		for j := uint64(0); j < na && r.Err() == nil; j++ {
			a := &Attribute{Source: id}
			a.Name = r.ReadString()
			a.ID = model.AttrID(r.Uvarint())
			a.Domain = model.ClassID(r.Uvarint())
			flags := r.Byte()
			if flags >= 1<<4 {
				return nil, fmt.Errorf("schema: corrupt catalog image: attribute %q flags %#x: %w", a.Name, flags, model.ErrCorrupt)
			}
			a.SetValued, a.Composite, a.Exclusive, a.Guarded = flags&1 != 0, flags&2 != 0, flags&4 != 0, flags&8 != 0
			a.Default = r.Value()
			cl.OwnAttrs = append(cl.OwnAttrs, a)
		}
		nm := r.Count()
		for j := uint64(0); j < nm && r.Err() == nil; j++ {
			cl.OwnMethods = append(cl.OwnMethods, &Method{Name: r.ReadString(), Source: id})
		}
		if r.Err() == nil {
			decoded = append(decoded, cl)
		}
	}
	r.End()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("schema: corrupt catalog image: %w", err)
	}
	// Two-phase install: a class's superclass may have a higher id than the
	// class itself (AddSuperclass can link to a newer class), so register
	// every class before wiring subclass back-edges. A user class never
	// takes a primitive's id, nor an id or a name already taken.
	for _, cl := range decoded {
		_, idTaken := c.classes[cl.ID]
		_, nameTaken := c.byName[cl.Name]
		if IsPrimitive(cl.ID) || idTaken || nameTaken {
			return nil, fmt.Errorf("schema: corrupt catalog image: class %d %q: %w", cl.ID, cl.Name, model.ErrCorrupt)
		}
		c.classes[cl.ID] = cl
		c.byName[cl.Name] = cl.ID
	}
	for _, cl := range decoded {
		for _, s := range cl.Supers {
			sup, ok := c.classes[s]
			if !ok {
				return nil, fmt.Errorf("schema: corrupt catalog image: class %d references unknown superclass %d: %w", cl.ID, s, model.ErrCorrupt)
			}
			sup.Subs = append(sup.Subs, cl.ID)
		}
	}
	c.rebuildAll()
	c.version.Store(version)
	return c, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}
