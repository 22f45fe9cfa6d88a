// Package model defines the core object-oriented data model of kimdb:
// object identifiers, attribute values, objects, and their binary
// representations.
//
// The model follows the "core object-oriented concepts" of Kim (PODS 1990),
// Section 3.1: every real-world entity is uniformly modeled as an object with
// a unique identifier; the state of an object is a set of attribute values;
// the value of an attribute is itself an object (a primitive object such as
// an integer, a reference to a general object, or a set of such values).
package model

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ClassID identifies a class in the schema. Class identifiers are assigned
// by the catalog and are stable for the life of a database. The low 24 bits
// of every OID carry the class of the instance, so a ClassID must fit in
// 24 bits.
type ClassID uint32

// MaxClassID is the largest class identifier representable inside an OID.
const MaxClassID ClassID = 1<<24 - 1

// AttrID identifies an attribute globally (across all classes). Attribute
// identifiers are assigned by the catalog when an attribute is first defined
// and never reused, which keeps stored objects self-describing across schema
// evolution: an object stores (AttrID, Value) pairs, so adding or dropping
// attributes never forces a rewrite of unrelated state.
type AttrID uint32

// OID is a unique object identifier: 24 bits of class identifier and 40 bits
// of per-class sequence number. An OID of zero is "no object" (the null
// reference).
//
// Embedding the class in the identifier is the classic ORION layout; it lets
// the system locate an object's class — and therefore its segment, lock
// ancestors and index set — without a directory lookup.
type OID uint64

// NilOID is the null object reference.
const NilOID OID = 0

// seqBits is the width of the per-class sequence number inside an OID.
const seqBits = 40

// maxSeq is the largest per-class sequence number.
const maxSeq = 1<<seqBits - 1

// MakeOID composes an OID from a class identifier and a sequence number.
// It panics if either component is out of range; identifiers are always
// produced by the catalog and the storage engine, so an out-of-range value
// is a programming error, not an input error.
func MakeOID(class ClassID, seq uint64) OID {
	if class > MaxClassID {
		panic(fmt.Sprintf("model: class id %d exceeds 24 bits", class))
	}
	if seq > maxSeq {
		panic(fmt.Sprintf("model: sequence %d exceeds 40 bits", seq))
	}
	return OID(uint64(class)<<seqBits | seq)
}

// Class returns the class identifier embedded in the OID.
func (o OID) Class() ClassID { return ClassID(o >> seqBits) }

// Seq returns the per-class sequence number embedded in the OID.
func (o OID) Seq() uint64 { return uint64(o) & maxSeq }

// IsNil reports whether the OID is the null reference.
func (o OID) IsNil() bool { return o == NilOID }

// String renders the OID as "class:seq" for logs and error messages.
func (o OID) String() string {
	if o.IsNil() {
		return "nil"
	}
	return fmt.Sprintf("%d:%d", o.Class(), o.Seq())
}

// ErrBadOID reports an OID literal that does not parse or whose class or
// sequence number does not fit in an OID.
var ErrBadOID = errors.New("model: bad OID literal")

// ParseOID parses an OID literal as String writes it, "class:seq" or
// "nil", with an optional leading "@" (the shell's and the loader's
// spelling). A class above MaxClassID or a sequence number above 40 bits is
// ErrBadOID, not an OID of some other class.
func ParseOID(s string) (OID, error) {
	lit := strings.TrimPrefix(s, "@")
	if lit == "nil" {
		return NilOID, nil
	}
	cs, ss, ok := strings.Cut(lit, ":")
	class, cerr := strconv.ParseUint(cs, 10, 24)
	seq, serr := strconv.ParseUint(ss, 10, seqBits)
	if !ok || cerr != nil || serr != nil {
		return NilOID, fmt.Errorf("%w: %q (want @class:seq, class below 2^24, seq below 2^40)", ErrBadOID, s)
	}
	return MakeOID(ClassID(class), seq), nil
}
