package model

import (
	"encoding/binary"
)

// AttrVal is one stored attribute: its global id and its value.
type AttrVal struct {
	ID AttrID
	V  Value
}

// Object is the stored state of one instance: its identity and the values of
// its attributes. Attribute values are keyed by global AttrID, so an object
// image remains interpretable across schema evolution — attributes added
// after the object was written are simply absent (and read as the class
// default), attributes dropped are ignored on load.
//
// Attributes are held as a slice sorted by AttrID. Objects rarely carry more
// than a handful of stored values, so the slice beats a map on every axis
// that matters to the read path: one backing array instead of hash buckets
// (decode allocation), binary search instead of hashing (lookup), and
// already-sorted iteration (encode needs no per-call sort).
//
// The behavior of an object (its methods) lives on its class in the catalog;
// Object carries state only.
type Object struct {
	OID   OID
	attrs []AttrVal
}

// NewObject returns an empty object with the given identity.
func NewObject(oid OID) *Object {
	return &Object{OID: oid}
}

// Class returns the class of the instance (embedded in its OID).
func (o *Object) Class() ClassID { return o.OID.Class() }

// find returns the index of a in the sorted attribute slice, or the
// insertion point with found=false.
func (o *Object) find(a AttrID) (int, bool) {
	lo, hi := 0, len(o.attrs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if o.attrs[mid].ID < a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(o.attrs) && o.attrs[lo].ID == a
}

// Lookup returns the stored value of attribute a and whether it is present.
func (o *Object) Lookup(a AttrID) (Value, bool) {
	if i, ok := o.find(a); ok {
		return o.attrs[i].V, true
	}
	return Null, false
}

// Get returns the stored value of attribute a, or null if the attribute has
// no stored value.
func (o *Object) Get(a AttrID) Value {
	v, _ := o.Lookup(a)
	return v
}

// Set stores v as the value of attribute a. Setting null removes the stored
// value, keeping images minimal.
func (o *Object) Set(a AttrID, v Value) {
	i, ok := o.find(a)
	if v.IsNull() {
		if ok {
			o.attrs = append(o.attrs[:i], o.attrs[i+1:]...)
		}
		return
	}
	if ok {
		o.attrs[i].V = v
		return
	}
	o.attrs = append(o.attrs, AttrVal{})
	copy(o.attrs[i+1:], o.attrs[i:])
	o.attrs[i] = AttrVal{ID: a, V: v}
}

// NumAttrs returns the number of stored attribute values.
func (o *Object) NumAttrs() int { return len(o.attrs) }

// AttrVals returns the stored attributes in ascending AttrID order. The
// slice is the object's own storage: callers must not mutate it.
func (o *Object) AttrVals() []AttrVal { return o.attrs }

// Clone returns a deep-enough copy of the object: the attribute slice is
// copied; Values are immutable and shared.
func (o *Object) Clone() *Object {
	dup := &Object{OID: o.OID}
	if len(o.attrs) > 0 {
		dup.attrs = make([]AttrVal, len(o.attrs))
		copy(dup.attrs, o.attrs)
	}
	return dup
}

// EncodeObject returns the storage image of the object: OID, attribute
// count, then (AttrID, Value) pairs in ascending AttrID order (the slice
// invariant — encoding is deterministic by construction).
func EncodeObject(o *Object) []byte {
	buf := make([]byte, 0, 16+8*len(o.attrs))
	buf = binary.AppendUvarint(buf, uint64(o.OID))
	buf = binary.AppendUvarint(buf, uint64(len(o.attrs)))
	for _, av := range o.attrs {
		buf = binary.AppendUvarint(buf, uint64(av.ID))
		buf = AppendValue(buf, av.V)
	}
	return buf
}

// DecodeObject decodes a storage image produced by EncodeObject.
func DecodeObject(buf []byte) (*Object, error) {
	im, err := imageHeader(buf)
	if err != nil {
		return nil, err
	}
	return im.Decode()
}
