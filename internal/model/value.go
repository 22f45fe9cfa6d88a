package model

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"unsafe"
)

// Kind enumerates the primitive classes of the core model plus the two
// constructors the paper's model requires: references (an attribute whose
// domain is a general class stores the OID of the referenced object) and
// sets (an attribute "may take on a single value or a set of values",
// Kim §3.1 model 2).
type Kind uint8

// The value kinds. The zero value of Kind is KindNull so that the zero
// Value is the null object.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindBool
	KindString
	KindBytes
	KindRef
	KindSet
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "integer"
	case KindFloat:
		return "float"
	case KindBool:
		return "boolean"
	case KindString:
		return "string"
	case KindBytes:
		return "bytes"
	case KindRef:
		return "reference"
	case KindSet:
		return "set"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is the state of one attribute of one object: a primitive object, a
// reference to a general object, or a set of values. Value is an immutable
// tagged union; the zero Value is null.
//
// A Value is 24 bytes: the kind, one word of number, and one pointer. A
// string or bytes value keeps its length in num and its first byte in ptr;
// a set keeps its member count in num and its first member in ptr. str and
// set rebuild the string and the slice from the two words. Whatever ptr
// points at is owned by the value and never written again: Bytes and
// DecodeValue copy their input, Set copies its members, so a Value never
// aliases a caller's buffer or a page of the store, and sharing one is
// safe. The leading zero-size func field keeps Value non-comparable (== on
// two Values does not compile; use Equal); it goes first because a trailing
// zero-size field would pad the struct.
type Value struct {
	_    [0]func()
	kind Kind
	num  uint64 // int64 bits, float64 bits, bool (0/1), OID, or payload length
	ptr  unsafe.Pointer
}

// stringValue returns a string or bytes value over s, which the value
// then owns.
func stringValue(kind Kind, s string) Value {
	return Value{kind: kind, num: uint64(len(s)), ptr: unsafe.Pointer(unsafe.StringData(s))}
}

// setValue returns a set value over members, which the value then owns.
func setValue(members []Value) Value {
	return Value{kind: KindSet, num: uint64(len(members)), ptr: unsafe.Pointer(unsafe.SliceData(members))}
}

// str returns the payload of a string or bytes value.
func (v Value) str() string {
	if v.kind != KindString && v.kind != KindBytes {
		return ""
	}
	return unsafe.String((*byte)(v.ptr), int(v.num))
}

// set returns the members of a set value. The slice is the value's own
// storage: callers must not modify it.
func (v Value) set() []Value {
	if v.kind != KindSet {
		return nil
	}
	return unsafe.Slice((*Value)(v.ptr), int(v.num))
}

// Null is the null value (absence of a value; also the null reference).
var Null = Value{}

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, num: uint64(v)} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{kind: KindFloat, num: math.Float64bits(v)} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	var n uint64
	if v {
		n = 1
	}
	return Value{kind: KindBool, num: n}
}

// String returns a string value.
func String(v string) Value { return stringValue(KindString, v) }

// Bytes returns a long-unstructured-data value. The input is copied.
func Bytes(v []byte) Value { return stringValue(KindBytes, string(v)) }

// Ref returns a reference value holding the OID of another object. A nil
// OID yields the null value, so Ref(NilOID).IsNull() is true.
func Ref(oid OID) Value {
	if oid.IsNil() {
		return Null
	}
	return Value{kind: KindRef, num: uint64(oid)}
}

// Set returns a set value over the given members. The members are stored in
// normalized (sorted, deduplicated) order so that equal sets compare equal.
func Set(members ...Value) Value {
	dup := make([]Value, len(members))
	copy(dup, members)
	sort.Slice(dup, func(i, j int) bool { return Compare(dup[i], dup[j]) < 0 })
	out := dup[:0]
	for i, v := range dup {
		if i == 0 || Compare(v, dup[i-1]) != 0 {
			out = append(out, v)
		}
	}
	return setValue(out)
}

// Kind returns the kind tag of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer payload. ok is false if the value is not an
// integer.
func (v Value) AsInt() (i int64, ok bool) {
	if v.kind != KindInt {
		return 0, false
	}
	return int64(v.num), true
}

// AsFloat returns the float payload, widening integers. ok is false if the
// value is neither a float nor an integer.
func (v Value) AsFloat() (f float64, ok bool) {
	switch v.kind {
	case KindFloat:
		return math.Float64frombits(v.num), true
	case KindInt:
		return float64(int64(v.num)), true
	}
	return 0, false
}

// AsBool returns the boolean payload. ok is false if the value is not a
// boolean.
func (v Value) AsBool() (b, ok bool) {
	if v.kind != KindBool {
		return false, false
	}
	return v.num == 1, true
}

// AsString returns the string payload. ok is false if the value is not a
// string.
func (v Value) AsString() (s string, ok bool) {
	if v.kind != KindString {
		return "", false
	}
	return v.str(), true
}

// AsBytes returns a copy of the bytes payload. ok is false if the value is
// not a bytes value.
func (v Value) AsBytes() (b []byte, ok bool) {
	if v.kind != KindBytes {
		return nil, false
	}
	return []byte(v.str()), true
}

// AsRef returns the referenced OID. ok is false if the value is not a
// reference.
func (v Value) AsRef() (oid OID, ok bool) {
	if v.kind != KindRef {
		return NilOID, false
	}
	return OID(v.num), true
}

// AsSet returns the members of a set value in normalized order. The returned
// slice must not be modified. ok is false if the value is not a set.
func (v Value) AsSet() (members []Value, ok bool) {
	if v.kind != KindSet {
		return nil, false
	}
	return v.set(), true
}

// Contains reports whether a set value contains member (by Compare
// equality). A non-set value contains nothing.
func (v Value) Contains(member Value) bool {
	if v.kind != KindSet {
		return false
	}
	members := v.set()
	i := sort.Search(len(members), func(i int) bool { return Compare(members[i], member) >= 0 })
	return i < len(members) && Compare(members[i], member) == 0
}

// String renders the value for logs, query results and the shell.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindInt:
		return strconv.FormatInt(int64(v.num), 10)
	case KindFloat:
		return strconv.FormatFloat(math.Float64frombits(v.num), 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.num == 1)
	case KindString:
		return strconv.Quote(v.str())
	case KindBytes:
		return fmt.Sprintf("bytes[%d]", len(v.str()))
	case KindRef:
		return "@" + OID(v.num).String()
	case KindSet:
		members := v.set()
		parts := make([]string, len(members))
		for i, m := range members {
			parts[i] = m.String()
		}
		return "{" + strings.Join(parts, ", ") + "}"
	default:
		return fmt.Sprintf("value(kind=%d)", uint8(v.kind))
	}
}

// kindOrder gives the total order across kinds used by Compare when the
// operands have different kinds (after numeric widening). Null sorts first,
// matching SQL-style "nulls first" index order.
func kindOrder(k Kind) int {
	switch k {
	case KindNull:
		return 0
	case KindInt, KindFloat:
		return 1
	case KindBool:
		return 2
	case KindString:
		return 3
	case KindBytes:
		return 4
	case KindRef:
		return 5
	case KindSet:
		return 6
	default:
		return 7
	}
}

// Compare defines a total order over all values: null first, then numerics
// (integers and floats compare by numeric value), booleans (false < true),
// strings, bytes, references (by OID), and sets (lexicographic over
// normalized members). The order is the index key order.
func Compare(a, b Value) int {
	ao, bo := kindOrder(a.kind), kindOrder(b.kind)
	if ao != bo {
		if ao < bo {
			return -1
		}
		return 1
	}
	switch {
	case a.kind == KindNull:
		return 0
	case ao == 1: // numeric
		if a.kind == KindInt && b.kind == KindInt {
			ai, bi := int64(a.num), int64(b.num)
			switch {
			case ai < bi:
				return -1
			case ai > bi:
				return 1
			}
			return 0
		}
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		}
		return 0
	case a.kind == KindBool:
		switch {
		case a.num < b.num:
			return -1
		case a.num > b.num:
			return 1
		}
		return 0
	case a.kind == KindString, a.kind == KindBytes:
		return strings.Compare(a.str(), b.str())
	case a.kind == KindRef:
		switch {
		case a.num < b.num:
			return -1
		case a.num > b.num:
			return 1
		}
		return 0
	default: // set
		as, bs := a.set(), b.set()
		for i := 0; i < len(as) && i < len(bs); i++ {
			if c := Compare(as[i], bs[i]); c != 0 {
				return c
			}
		}
		switch {
		case len(as) < len(bs):
			return -1
		case len(as) > len(bs):
			return 1
		}
		return 0
	}
}

// Equal reports whether two values are equal under Compare.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }
