package model

import (
	"encoding/binary"
	"fmt"
)

// Image is a read-only view over one encoded object — the bytes
// EncodeObject writes and the heap stores. It lets a scan read the few
// attributes a predicate or aggregate names without building the *Object:
// Lookup walks the (AttrID, Value) pairs, skipping the values it is not
// asked for, and allocates nothing for scalar values. Decode materialises
// the full object for the rows that need one.
//
// An Image borrows the bytes it was made from: it is valid for as long as
// they are, and values read through it are copies (strings included), so
// they may outlive it.
type Image struct {
	oid   OID
	pairs []byte // n × (AttrID uvarint, Value), ids strictly ascending
	n     int
}

// imageHeader parses the OID and the pair count, checking nothing beyond.
func imageHeader(buf []byte) (Image, error) {
	oid, n := binary.Uvarint(buf)
	if n <= 0 {
		return Image{}, ErrCorrupt
	}
	cnt, m := binary.Uvarint(buf[n:])
	if m <= 0 || cnt > uint64(len(buf)) {
		return Image{}, ErrCorrupt
	}
	return Image{oid: OID(oid), pairs: buf[n+m:], n: int(cnt)}, nil
}

// ViewImage checks the structure of an encoded object — every pair is
// walked once, values skipped rather than decoded — and returns the view.
// Truncated or malformed bytes yield ErrCorrupt, and so do attribute ids
// that are not strictly ascending (EncodeObject writes no other order); a
// view that was returned never fails a later Lookup or Decode and never
// reads past buf.
func ViewImage(buf []byte) (Image, error) {
	im, err := imageHeader(buf)
	if err != nil {
		return Image{}, err
	}
	rest := im.pairs
	var prev AttrID
	for i := 0; i < im.n; i++ {
		id, m := binary.Uvarint(rest)
		if m <= 0 {
			return Image{}, ErrCorrupt
		}
		used, err := skipValue(rest[m:], 0)
		if err != nil {
			return Image{}, err
		}
		rest = rest[m+used:]
		if i > 0 && AttrID(id) <= prev {
			return Image{}, errOutOfOrder
		}
		prev = AttrID(id)
	}
	return im, nil
}

// OID returns the identity stored in the image.
func (im Image) OID() OID { return im.oid }

// Lookup returns the stored value of attribute a and whether it is
// present, exactly as Decode().Lookup(a) would.
func (im Image) Lookup(a AttrID) (Value, bool) {
	rest := im.pairs
	for i := 0; i < im.n; i++ {
		id, m := binary.Uvarint(rest)
		rest = rest[m:]
		if AttrID(id) >= a {
			if AttrID(id) > a {
				break
			}
			v, _, err := DecodeValue(rest)
			return v, err == nil
		}
		used, err := skipValue(rest, 0)
		if err != nil {
			break
		}
		rest = rest[used:]
	}
	return Null, false
}

// Decode materialises the object.
func (im Image) Decode() (*Object, error) {
	obj := &Object{OID: im.oid}
	if im.n > 0 {
		obj.attrs = make([]AttrVal, 0, im.n)
	}
	rest := im.pairs
	for i := 0; i < im.n; i++ {
		id, m := binary.Uvarint(rest)
		if m <= 0 {
			return nil, ErrCorrupt
		}
		v, used, err := DecodeValue(rest[m:])
		if err != nil {
			return nil, err
		}
		rest = rest[m+used:]
		if k := len(obj.attrs); k > 0 && obj.attrs[k-1].ID >= AttrID(id) {
			return nil, errOutOfOrder
		}
		obj.attrs = append(obj.attrs, AttrVal{ID: AttrID(id), V: v})
	}
	return obj, nil
}

// errOutOfOrder reports an image whose attribute ids do not ascend.
var errOutOfOrder = fmt.Errorf("%w: attribute ids out of order", ErrCorrupt)

// skipValue returns the encoded length of the value at the front of buf,
// accepting exactly the inputs decodeValue accepts.
func skipValue(buf []byte, depth int) (int, error) {
	if len(buf) == 0 {
		return 0, ErrCorrupt
	}
	switch kind := Kind(buf[0]); kind {
	case KindNull:
		return 1, nil
	case KindInt, KindRef: // a zig-zag varint is as long as its uvarint
		_, m := binary.Uvarint(buf[1:])
		if m <= 0 {
			return 0, ErrCorrupt
		}
		return 1 + m, nil
	case KindFloat:
		if len(buf) < 9 {
			return 0, ErrCorrupt
		}
		return 9, nil
	case KindBool:
		if len(buf) < 2 {
			return 0, ErrCorrupt
		}
		return 2, nil
	case KindString, KindBytes:
		l, m := binary.Uvarint(buf[1:])
		if m <= 0 || l > uint64(len(buf)-1-m) {
			return 0, ErrCorrupt
		}
		return 1 + m + int(l), nil
	case KindSet:
		if depth >= maxDecodeDepth {
			return 0, fmt.Errorf("%w: set nesting beyond %d", ErrCorrupt, maxDecodeDepth)
		}
		cnt, m := binary.Uvarint(buf[1:])
		if m <= 0 || cnt > uint64(len(buf)) {
			return 0, ErrCorrupt
		}
		n := 1 + m
		for i := uint64(0); i < cnt; i++ {
			used, err := skipValue(buf[n:], depth+1)
			if err != nil {
				return 0, err
			}
			n += used
		}
		return n, nil
	default:
		return 0, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, kind)
	}
}
