package model

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

var errTest = errors.New("test: bad input")

func TestReaderReadsWhatWasAppended(t *testing.T) {
	buf := []byte{9}
	buf = binary.BigEndian.AppendUint32(buf, 0xDEADBEEF)
	buf = binary.AppendUvarint(buf, 300)
	buf = binary.AppendUvarint(buf, 3)
	buf = append(buf, "abc"...)
	buf = binary.AppendUvarint(buf, 0) // empty bytes read as nil
	buf = AppendValue(buf, String("v"))
	r := NewReader(buf, errTest)
	if b, u, v, s, bs, val := r.Byte(), r.Uint32(), r.Uvarint(), r.ReadString(), r.Bytes(), r.Value(); b != 9 || u != 0xDEADBEEF || v != 300 ||
		s != "abc" || bs != nil || Compare(val, String("v")) != 0 {
		t.Fatalf("read %d %x %d %q %v %v", b, u, v, s, bs, val)
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("err %v, %d bytes left", r.Err(), r.Remaining())
	}
}

// TestReaderLatchesFirstError: the first malformed field latches the
// cursor's own error, and every read after it returns a zero value even
// where the bytes would decode.
func TestReaderLatchesFirstError(t *testing.T) {
	buf := bytes.Repeat([]byte{0xFF}, 10) // a uvarint that overflows
	buf = binary.AppendUvarint(buf, 5)
	buf = append(buf, "hello"...)
	r := NewReader(buf, errTest)
	if v := r.Uvarint(); v != 0 || !errors.Is(r.Err(), errTest) {
		t.Fatalf("Uvarint = %d, err %v", v, r.Err())
	}
	r.off = 10 // the rest is well-formed: a latched cursor must still refuse it
	if b, u, v, n, s, bs, ss, o, val, attrs := r.Byte(), r.Uint32(), r.Uvarint(), r.Count(), r.ReadString(),
		r.Bytes(), r.Strings(), r.OID(), r.Value(), r.Attrs(); b != 0 || u != 0 || v != 0 || n != 0 ||
		s != "" || bs != nil || ss != nil || o != NilOID || !val.IsNull() || attrs != nil {
		t.Fatalf("latched reads returned %d %d %d %d %q %v %v %v %v %v", b, u, v, n, s, bs, ss, o, val, attrs)
	}
	if r.Err() != errTest {
		t.Fatalf("err %v, want the first one", r.Err())
	}
}

// TestReaderCountBoundedByInput: a count larger than the bytes left fails
// without allocating for it, in Count and in every counted read.
func TestReaderCountBoundedByInput(t *testing.T) {
	forged := binary.AppendUvarint(nil, 1<<40)
	forged = append(forged, 1, 2, 3)
	if n := NewReader(forged, errTest).Count(); n != 0 {
		t.Fatalf("Count = %d", n)
	}
	exact := binary.AppendUvarint(nil, 3)
	exact = append(exact, 1, 2, 3)
	if r := NewReader(exact, errTest); r.Count() != 3 || r.Err() != nil {
		t.Fatalf("Count refused a count the input holds: %v", r.Err())
	}
	for name, read := range map[string]func(*Reader){
		"Count":      func(r *Reader) { r.Count() },
		"ReadString": func(r *Reader) { r.ReadString() },
		"Bytes":      func(r *Reader) { r.Bytes() },
		"Strings":    func(r *Reader) { r.Strings() },
		"Attrs":      func(r *Reader) { r.Attrs() },
	} {
		var r Reader
		allocs := testing.AllocsPerRun(100, func() {
			r = Reader{buf: forged, bad: errTest}
			read(&r)
		})
		if allocs != 0 || r.Err() != errTest {
			t.Errorf("%s over a forged count: %.0f allocs, err %v", name, allocs, r.Err())
		}
	}
}

func TestReaderEndRefusesTrailingBytes(t *testing.T) {
	img := binary.AppendUvarint(nil, 7)
	r := NewReader(img, errTest)
	r.Uvarint()
	if r.End(); r.Err() != nil {
		t.Fatalf("End at the end of the image: %v", r.Err())
	}
	r = NewReader(append(img, 0), errTest)
	r.Uvarint()
	if r.End(); !errors.Is(r.Err(), errTest) {
		t.Fatalf("End with a byte left: %v, want the latched error", r.Err())
	}
}
