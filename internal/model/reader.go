package model

import "encoding/binary"

// Reader is the module's one decoding cursor: the catalog, the index
// definitions, the statistics registry, the segment table, WAL records and
// wire frames all decode through it. The first malformed field latches the
// error the cursor was made with (ErrCorrupt for disk images, the log's
// torn-frame error, the wire's malformed-message error); every later read
// returns a zero value, so a decode sequence checks Err once at the end.
// Hostile input can therefore never panic the caller. A list length is
// read with Count, which refuses one larger than the bytes left, so a
// forged count cannot make the caller allocate for it.
type Reader struct {
	buf []byte
	off int
	bad error
	err error
}

// NewReader returns a cursor over buf that latches bad on the first
// malformed field.
func NewReader(buf []byte, bad error) *Reader { return &Reader{buf: buf, bad: bad} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// End latches the cursor's error if bytes remain: an image ends where its
// last field ends, so bytes after it are damage, not padding.
func (r *Reader) End() {
	if r.Remaining() != 0 {
		r.fail()
	}
}

func (r *Reader) fail() {
	if r.err == nil {
		r.err = r.bad
	}
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil || r.off >= len(r.buf) {
		r.fail()
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Uint32 reads a big-endian uint32.
func (r *Reader) Uint32() uint32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// Uvarint reads a uvarint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// Count reads the length of a list whose every element takes a byte at
// least, refusing one larger than the bytes left.
func (r *Reader) Count() uint64 {
	n := r.Uvarint()
	if n > uint64(r.Remaining()) {
		r.fail()
		return 0
	}
	return n
}

// next returns the payload of a length-prefixed field, aliasing buf.
func (r *Reader) next() []byte {
	n := r.Count()
	if r.err != nil {
		return nil
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// ReadString reads a length-prefixed string.
func (r *Reader) ReadString() string { return string(r.next()) }

// Bytes reads a length-prefixed byte string into a fresh copy; an empty
// one reads as nil.
func (r *Reader) Bytes() []byte {
	if b := r.next(); len(b) > 0 {
		return append([]byte(nil), b...)
	}
	return nil
}

// Strings reads a counted list of strings.
func (r *Reader) Strings() []string {
	n := r.Count()
	ss := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		ss = append(ss, r.ReadString())
	}
	if r.err != nil {
		return nil
	}
	return ss
}

// OID reads an object identifier.
func (r *Reader) OID() OID { return OID(r.Uvarint()) }

// Value reads one value in the engine's canonical encoding.
func (r *Reader) Value() Value {
	if r.err != nil {
		return Null
	}
	v, n, err := DecodeValue(r.buf[r.off:])
	if err != nil {
		r.fail()
		return Null
	}
	r.off += n
	return v
}

// Attrs reads a counted name→value attribute map.
func (r *Reader) Attrs() map[string]Value {
	n := r.Count()
	if r.err != nil {
		return nil
	}
	attrs := make(map[string]Value, n)
	for i := uint64(0); i < n; i++ {
		name := r.ReadString()
		v := r.Value()
		if r.err != nil {
			return nil
		}
		attrs[name] = v
	}
	return attrs
}
