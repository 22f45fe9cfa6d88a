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
	buf = binary.AppendUvarint(buf, c.version)

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
			if a.SetValued {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
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
	r := reader{buf: buf[4:]}
	c := NewCatalog()
	c.nextClass = model.ClassID(r.uvarint())
	c.nextAttr = model.AttrID(r.uvarint())
	version := r.uvarint()

	n := r.uvarint()
	var decoded []*Class
	for i := uint64(0); i < n && r.err == nil; i++ {
		name := r.str()
		id := model.ClassID(r.uvarint())
		ns := r.uvarint()
		if ns > uint64(len(r.buf)) {
			r.err = model.ErrCorrupt // each superclass id takes a byte at least
			break
		}
		supers := make([]model.ClassID, ns)
		for j := range supers {
			supers[j] = model.ClassID(r.uvarint())
		}
		cl := &Class{ID: id, Name: name, Supers: supers}
		na := r.uvarint()
		for j := uint64(0); j < na && r.err == nil; j++ {
			a := &Attribute{Source: id}
			a.Name = r.str()
			a.ID = model.AttrID(r.uvarint())
			a.Domain = model.ClassID(r.uvarint())
			a.SetValued = r.byte() == 1
			a.Default = r.value()
			cl.OwnAttrs = append(cl.OwnAttrs, a)
		}
		nm := r.uvarint()
		for j := uint64(0); j < nm && r.err == nil; j++ {
			cl.OwnMethods = append(cl.OwnMethods, &Method{Name: r.str(), Source: id})
		}
		if r.err == nil {
			decoded = append(decoded, cl)
		}
	}
	if r.err != nil {
		return nil, fmt.Errorf("schema: corrupt catalog image: %w", r.err)
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
	c.version = version
	return c, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// reader is a cursor over a binary image that latches the first error.
type reader struct {
	buf []byte
	err error
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.err = model.ErrCorrupt
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.buf) == 0 {
		r.err = model.ErrCorrupt
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

func (r *reader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if uint64(len(r.buf)) < n {
		r.err = model.ErrCorrupt
		return ""
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

func (r *reader) value() model.Value {
	if r.err != nil {
		return model.Null
	}
	v, n, err := model.DecodeValue(r.buf)
	if err != nil {
		r.err = err
		return model.Null
	}
	r.buf = r.buf[n:]
	return v
}
