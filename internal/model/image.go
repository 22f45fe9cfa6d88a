package model

import (
	"encoding/binary"
	"fmt"
)

// Image is one encoded object — the bytes EncodeObject writes and the
// heap stores — whose structure ReadImage has checked. Decode materialises
// the full object for the rows that need one.
//
// An Image borrows the bytes it was made from: it is valid for as long as
// they are.
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

// Field is one attribute a record read picks out: the caller sets ID,
// ReadImage sets V to the stored value and OK to whether one is stored.
type Field struct {
	ID AttrID
	V  Value
	OK bool
}

// ReadImage checks the structure of an encoded object in one pass over its
// pairs and, in the same pass, decodes the values of the attributes fields
// asks for (ids ascending, no repeats); every other value is skipped, not
// decoded. Truncated or malformed bytes yield ErrCorrupt, and so do
// attribute ids that are not strictly ascending (EncodeObject writes no
// other order): ReadImage accepts exactly what DecodeObject accepts, and
// a field reads what DecodeObject(buf).Lookup(ID) returns. The returned
// image never fails a later Decode and never reads past buf. Values
// decoded into fields are copies (strings included), so they may outlive
// buf; after an error the fields hold nothing meaningful.
func ReadImage(buf []byte, fields []Field) (Image, error) {
	im, err := imageHeader(buf)
	if err != nil {
		return Image{}, err
	}
	rest, next := im.pairs, 0
	var prev AttrID
	for i := 0; i < im.n; i++ {
		id, m := binary.Uvarint(rest)
		if m <= 0 {
			return Image{}, ErrCorrupt
		}
		for ; next < len(fields) && fields[next].ID < AttrID(id); next++ {
			fields[next].V, fields[next].OK = Null, false
		}
		var used int
		if next < len(fields) && fields[next].ID == AttrID(id) {
			fields[next].V, used, err = decodeValue(rest[m:], 0)
			fields[next].OK = true
			next++
		} else {
			used, err = skipValue(rest[m:], 0)
		}
		if err != nil {
			return Image{}, err
		}
		rest = rest[m+used:]
		if i > 0 && AttrID(id) <= prev {
			return Image{}, errOutOfOrder
		}
		prev = AttrID(id)
	}
	for ; next < len(fields); next++ {
		fields[next].V, fields[next].OK = Null, false
	}
	return im, nil
}

// OID returns the identity stored in the image.
func (im Image) OID() OID { return im.oid }

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
