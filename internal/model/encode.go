package model

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrCorrupt reports a malformed binary value or object image.
var ErrCorrupt = errors.New("model: corrupt binary image")

// AppendValue appends the storage encoding of v to dst and returns the
// extended slice. The encoding is a one-byte kind tag followed by a
// kind-specific payload; varints keep small integers and short strings
// compact, which matters because objects are stored as runs of encoded
// values inside slotted pages.
func AppendValue(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindInt:
		dst = binary.AppendVarint(dst, int64(v.num))
	case KindFloat:
		dst = binary.BigEndian.AppendUint64(dst, v.num)
	case KindBool:
		dst = append(dst, byte(v.num))
	case KindString, KindBytes:
		dst = binary.AppendUvarint(dst, v.num)
		dst = append(dst, v.str()...)
	case KindRef:
		dst = binary.AppendUvarint(dst, v.num)
	case KindSet:
		dst = binary.AppendUvarint(dst, v.num)
		for _, m := range v.set() {
			dst = AppendValue(dst, m)
		}
	}
	return dst
}

// maxDecodeDepth bounds set nesting while decoding. DecodeValue also runs
// on untrusted wire bytes (internal/server/proto), where a stream of
// nested set headers — two bytes per level — could otherwise recurse until
// the stack overflows, a fatal runtime error no recover() can contain.
// Deeper nesting than this is refused as corrupt.
const maxDecodeDepth = 32

// DecodeValue decodes one value from the front of buf, returning the value
// and the number of bytes consumed.
func DecodeValue(buf []byte) (Value, int, error) {
	return decodeValue(buf, 0)
}

func decodeValue(buf []byte, depth int) (Value, int, error) {
	if len(buf) == 0 {
		return Null, 0, ErrCorrupt
	}
	kind := Kind(buf[0])
	n := 1
	switch kind {
	case KindNull:
		return Null, n, nil
	case KindInt:
		i, m := binary.Varint(buf[n:])
		if m <= 0 {
			return Null, 0, ErrCorrupt
		}
		return Int(i), n + m, nil
	case KindFloat:
		if len(buf) < n+8 {
			return Null, 0, ErrCorrupt
		}
		bits := binary.BigEndian.Uint64(buf[n:])
		return Float(math.Float64frombits(bits)), n + 8, nil
	case KindBool:
		if len(buf) < n+1 {
			return Null, 0, ErrCorrupt
		}
		return Bool(buf[n] == 1), n + 1, nil
	case KindString, KindBytes:
		l, m := binary.Uvarint(buf[n:])
		if m <= 0 || l > uint64(len(buf)-n-m) {
			return Null, 0, ErrCorrupt
		}
		// The payload is copied: a decoded value never aliases buf.
		return stringValue(kind, string(buf[n+m:n+m+int(l)])), n + m + int(l), nil
	case KindRef:
		o, m := binary.Uvarint(buf[n:])
		if m <= 0 {
			return Null, 0, ErrCorrupt
		}
		return Ref(OID(o)), n + m, nil
	case KindSet:
		if depth >= maxDecodeDepth {
			return Null, 0, fmt.Errorf("%w: set nesting beyond %d", ErrCorrupt, maxDecodeDepth)
		}
		cnt, m := binary.Uvarint(buf[n:])
		if m <= 0 || cnt > uint64(len(buf)) {
			return Null, 0, ErrCorrupt
		}
		n += m
		members := make([]Value, 0, cnt)
		for i := uint64(0); i < cnt; i++ {
			mv, used, err := decodeValue(buf[n:], depth+1)
			if err != nil {
				return Null, 0, err
			}
			members = append(members, mv)
			n += used
		}
		// Members were normalized at Set() time; trust the stored order.
		return setValue(members), n, nil
	default:
		return Null, 0, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, kind)
	}
}

// Key encoding. Index keys must sort bytewise in the same order Compare
// sorts values, so B+tree pages can compare keys with bytes.Compare without
// decoding. The first byte is the kind-order class; payloads are transformed
// to be order-preserving (sign-flipped big-endian integers, IEEE 754 with
// sign fix-up for floats, zero-terminated escaped strings).

const (
	keyNull   = 0x00
	keyNum    = 0x10
	keyBool   = 0x20
	keyString = 0x30
	keyBytes  = 0x40
	keyRef    = 0x50
	keySet    = 0x60
)

// AppendKey appends the order-preserving key encoding of v to dst.
// Integers and floats share the numeric class: both are encoded as the
// order-fixed bits of the float64 value, with integers beyond 2^53 falling
// back to their exact integer encoding in a dedicated sub-band. For database
// keys in this engine's domain (counts, weights, identifiers below 2^53)
// this preserves Compare order exactly; TestKeyOrderMatchesCompare verifies
// the property on generated values.
func AppendKey(dst []byte, v Value) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, keyNull)
	case KindInt, KindFloat:
		f, _ := v.AsFloat()
		bits := math.Float64bits(f)
		if bits&(1<<63) != 0 {
			bits = ^bits // negative: flip all bits
		} else {
			bits |= 1 << 63 // non-negative: set sign bit
		}
		dst = append(dst, keyNum)
		return binary.BigEndian.AppendUint64(dst, bits)
	case KindBool:
		dst = append(dst, keyBool)
		return append(dst, byte(v.num))
	case KindString, KindBytes:
		tag := byte(keyString)
		if v.kind == KindBytes {
			tag = keyBytes
		}
		dst = append(dst, tag)
		// Escape 0x00 as 0x00 0xFF so the 0x00 0x00 terminator sorts
		// before any continuation of the string.
		s := v.str()
		for i := 0; i < len(s); i++ {
			c := s[i]
			dst = append(dst, c)
			if c == 0x00 {
				dst = append(dst, 0xFF)
			}
		}
		return append(dst, 0x00, 0x00)
	case KindRef:
		dst = append(dst, keyRef)
		return binary.BigEndian.AppendUint64(dst, v.num)
	case KindSet:
		dst = append(dst, keySet)
		for _, m := range v.set() {
			dst = AppendKey(dst, m)
		}
		return append(dst, keyNull) // terminator sorts before any member tag
	default:
		panic(fmt.Sprintf("model: AppendKey on kind %d", v.kind))
	}
}

// Key returns the order-preserving key encoding of v as a fresh slice.
func Key(v Value) []byte { return AppendKey(nil, v) }

// DecodeIntKey returns the integer a numeric key encodes: the inverse of
// AppendKey over integers, which is how an index answers from its keys
// alone. ok is false for a key that is not numeric, or whose number is not
// an integer in int64's range. A key of magnitude 2^53 or more decodes to
// one of the integers that share it: check the result with KeyExact.
func DecodeIntKey(key []byte) (v Value, ok bool) {
	if len(key) != 9 || key[0] != keyNum {
		return Null, false
	}
	bits := binary.BigEndian.Uint64(key[1:])
	if bits&(1<<63) != 0 {
		bits &^= 1 << 63 // non-negative: clear the sign bit set on encode
	} else {
		bits = ^bits // negative: flip all bits back
	}
	f := math.Float64frombits(bits)
	if f != math.Trunc(f) || math.Abs(f) >= 1<<63 {
		return Null, false
	}
	return Int(int64(f)), true
}

// KeyExact reports whether v's key is held by values equal to v alone.
// Numeric keys are the float64 image of the value, so from 2^53 up distinct
// integers round to one key, and NaN compares equal to everything: there,
// neither a strict key bound nor key order stands in for Compare.
func KeyExact(v Value) bool {
	f, numeric := v.AsFloat()
	return !numeric || math.Abs(f) < 1<<53
}
