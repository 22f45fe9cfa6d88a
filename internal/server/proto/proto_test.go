package proto

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"oodb/internal/model"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{}, {0x01}, bytes.Repeat([]byte{0xAB}, 70000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	for i, want := range payloads {
		got, err := ReadFrame(&buf, MaxFrame)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
	if _, err := ReadFrame(&buf, MaxFrame); err != io.EOF {
		t.Fatalf("after last frame: got %v, want io.EOF", err)
	}
}

func TestReadFrameRefusesOversize(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	_, err := ReadFrame(&buf, 512)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	short := buf.Bytes()[:buf.Len()-10]
	_, err := ReadFrame(bytes.NewReader(short), MaxFrame)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("got %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h := Hello{Version: Version, Role: "engineer", Token: "s3cret"}
	buf := AppendHello(nil, h)
	got, err := ReadHello(NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("got %+v, want %+v", got, h)
	}
}

func TestHelloBadMagic(t *testing.T) {
	buf := AppendHello(nil, Hello{Version: 1, Role: "r"})
	buf[0] ^= 0xFF
	if _, err := ReadHello(NewReader(buf)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("got %v, want ErrMalformed", err)
	}
}

func TestAttrsRoundTrip(t *testing.T) {
	attrs := map[string]model.Value{
		"weight": model.Int(7600),
		"name":   model.String("clamp"),
		"parts":  model.Set(model.Ref(model.OID(42)), model.Int(-1)),
		"ok":     model.Bool(true),
		"ratio":  model.Float(2.5),
		"note":   model.Null,
	}
	buf := AppendAttrs(nil, attrs)
	got := NewReader(buf).Attrs()
	if len(got) != len(attrs) {
		t.Fatalf("got %d attrs, want %d", len(got), len(attrs))
	}
	for name, v := range attrs {
		if model.Compare(got[name], v) != 0 {
			t.Fatalf("attr %q: got %v, want %v", name, got[name], v)
		}
	}
}

func TestResultRoundTrip(t *testing.T) {
	res := &Result{
		Cols: []string{"oid", "weight"},
		Rows: []ResultRow{
			{OID: model.OID(1<<40 | 7), Values: []model.Value{model.Ref(model.OID(1<<40 | 7)), model.Int(10)}},
			{OID: 0, Values: []model.Value{model.Null, model.Float(1.5)}},
		},
	}
	buf := AppendResult(nil, res)
	got, err := ReadResult(NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Cols, res.Cols) {
		t.Fatalf("cols: got %v, want %v", got.Cols, res.Cols)
	}
	if len(got.Rows) != len(res.Rows) {
		t.Fatalf("rows: got %d, want %d", len(got.Rows), len(res.Rows))
	}
	for i := range res.Rows {
		if got.Rows[i].OID != res.Rows[i].OID {
			t.Fatalf("row %d oid: got %v, want %v", i, got.Rows[i].OID, res.Rows[i].OID)
		}
		for j := range res.Rows[i].Values {
			if model.Compare(got.Rows[i].Values[j], res.Rows[i].Values[j]) != 0 {
				t.Fatalf("row %d col %d differs", i, j)
			}
		}
	}
}

func TestObjectRoundTrip(t *testing.T) {
	o := &Object{
		OID:   model.OID(3<<40 | 9),
		Class: "Vehicle",
		Attrs: map[string]model.Value{"weight": model.Int(7600)},
	}
	got, err := ReadObject(NewReader(AppendObject(nil, o)))
	if err != nil {
		t.Fatal(err)
	}
	if got.OID != o.OID || got.Class != o.Class || len(got.Attrs) != 1 ||
		model.Compare(got.Attrs["weight"], o.Attrs["weight"]) != 0 {
		t.Fatalf("got %+v, want %+v", got, o)
	}
}

// FuzzReader feeds arbitrary bytes to every decoder a peer's bytes reach:
// the frame reader, the handshake halves, a query result, an object, an
// error response and a Fetch body. None may panic, and whatever decodes must
// re-encode with the matching Append* to bytes that decode equal. The
// corpus holds every prefix of every seed.
func FuzzReader(f *testing.F) {
	seeds := [][]byte{
		AppendFrame(nil, AppendRequest(nil, VerbPing, 1)),
		AppendHello(nil, Hello{Version: Version, Role: "engineer", Token: "s3cret"}),
		AppendWelcome(nil, Welcome{Version: Version, SessionID: 42}),
		AppendResult(nil, &Result{
			Cols: []string{"name", "weight"},
			Rows: []ResultRow{
				{OID: model.OID(1<<40 | 7), Values: []model.Value{model.String("cam"), model.Int(10)}},
				{Values: []model.Value{model.Null, model.Set(model.Ref(model.OID(3)), model.Float(1.5))}},
			},
		}),
		AppendObject(nil, &Object{OID: model.OID(3<<40 | 9), Class: "Vehicle",
			Attrs: map[string]model.Value{"weight": model.Int(7600), "ok": model.Bool(true)}}),
		AppendError(nil, 7, ErrCodeRetryable, "shed"),
		AppendOID(nil, model.OID(1<<40|7)),
	}
	for _, seed := range seeds {
		for n := 0; n <= len(seed); n++ {
			f.Add(seed[:n]) // every truncation, and the whole image
		}
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		// A frame may claim no more than the input holds, so a hostile
		// length prefix never allocates past it.
		if p, err := ReadFrame(bytes.NewReader(buf), len(buf)); err == nil {
			if again := AppendFrame(nil, p); !bytes.Equal(again, buf[:len(again)]) {
				t.Fatalf("frame re-encodes to %x, read from %x", again, buf)
			}
		}
		if h, err := ReadHello(NewReader(buf)); err == nil {
			if again, err := ReadHello(NewReader(AppendHello(nil, h))); err != nil || again != h {
				t.Fatalf("hello %+v re-decodes to %+v (%v)", h, again, err)
			}
		}
		if w, err := ReadWelcome(NewReader(buf)); err == nil {
			if again, err := ReadWelcome(NewReader(AppendWelcome(nil, w))); err != nil || again != w {
				t.Fatalf("welcome %+v re-decodes to %+v (%v)", w, again, err)
			}
		}
		if res, err := ReadResult(NewReader(buf)); err == nil {
			enc := AppendResult(nil, res)
			again, err := ReadResult(NewReader(enc))
			if err != nil || !bytes.Equal(AppendResult(nil, again), enc) {
				t.Fatalf("result %+v re-decodes to %+v (%v)", res, again, err)
			}
		}
		if o, err := ReadObject(NewReader(buf)); err == nil {
			again, err := ReadObject(NewReader(AppendObject(nil, o)))
			if err != nil || !sameObject(o, again) {
				t.Fatalf("object %+v re-decodes to %+v (%v)", o, again, err)
			}
		}
		r := NewReader(buf)
		status, seq, code, msg := r.Byte(), r.Uint32(), r.Byte(), r.ReadString()
		if r.Err() == nil && status == StatusErr {
			r2 := NewReader(AppendError(nil, seq, code, msg))
			if r2.Byte() != status || r2.Uint32() != seq || r2.Byte() != code || r2.ReadString() != msg || r2.Err() != nil {
				t.Fatalf("error response seq=%d code=%d %q does not re-decode", seq, code, msg)
			}
		}
		r = NewReader(buf)
		if oid := r.OID(); r.Err() == nil {
			if again := NewReader(AppendOID(nil, oid)).OID(); again != oid {
				t.Fatalf("fetch body %v re-decodes to %v", oid, again)
			}
		}
	})
}

// sameObject compares two objects attribute by attribute in the canonical
// value encoding, which tells apart what Compare equates (1 and 1.0).
func sameObject(a, b *Object) bool {
	if a.OID != b.OID || a.Class != b.Class || len(a.Attrs) != len(b.Attrs) {
		return false
	}
	for name, v := range a.Attrs {
		w, ok := b.Attrs[name]
		if !ok || !bytes.Equal(model.AppendValue(nil, v), model.AppendValue(nil, w)) {
			return false
		}
	}
	return true
}

func TestErrorResponseShape(t *testing.T) {
	buf := AppendError(nil, 7, ErrCodeRetryable, "shed")
	r := NewReader(buf)
	if st := r.Byte(); st != StatusErr {
		t.Fatalf("status = %d", st)
	}
	if seq := r.Uint32(); seq != 7 {
		t.Fatalf("seq = %d", seq)
	}
	if code := r.Byte(); code != ErrCodeRetryable {
		t.Fatalf("code = %d", code)
	}
	if msg := r.ReadString(); msg != "shed" {
		t.Fatalf("msg = %q", msg)
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}
