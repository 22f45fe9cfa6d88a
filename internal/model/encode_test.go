package model

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func TestValueCodecRoundTrip(t *testing.T) {
	vals := []Value{
		Null,
		Int(0), Int(1), Int(-1), Int(math.MaxInt64), Int(math.MinInt64),
		Float(0), Float(-2.75), Float(math.Inf(1)),
		Bool(true), Bool(false),
		String(""), String("Detroit"), String("日本語\x00embedded"),
		Bytes(nil), Bytes([]byte{0, 255, 1}),
		Ref(MakeOID(12, 99)),
		Set(), Set(Int(1), String("x"), Set(Bool(true))),
	}
	for _, v := range vals {
		enc := AppendValue(nil, v)
		got, n, err := DecodeValue(enc)
		if err != nil {
			t.Fatalf("decode %v: %v", v, err)
		}
		if n != len(enc) {
			t.Errorf("decode %v consumed %d of %d bytes", v, n, len(enc))
		}
		if !Equal(got, v) {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

func TestValueCodecRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		v := randValue(r, 3)
		enc := AppendValue(nil, v)
		got, n, err := DecodeValue(enc)
		if err != nil {
			t.Fatalf("decode %v: %v", v, err)
		}
		if n != len(enc) || !Equal(got, v) {
			t.Fatalf("round trip %v -> %v (%d/%d bytes)", v, got, n, len(enc))
		}
	}
}

func TestDecodeValueCorrupt(t *testing.T) {
	bad := [][]byte{
		nil,
		{byte(KindInt)},            // missing varint
		{byte(KindFloat), 1, 2},    // short float
		{byte(KindString), 5, 'a'}, // declared length exceeds data
		{byte(KindSet), 200},       // set count exceeds data
		{0xEE},                     // unknown kind
	}
	for i, buf := range bad {
		if _, _, err := DecodeValue(buf); err == nil {
			t.Errorf("case %d: expected corruption error", i)
		}
	}
}

func TestDecodeValueDepthLimit(t *testing.T) {
	// nested returns the encoding of levels set headers (one member each)
	// around a null: Set(Set(...Set(Null)...)).
	nested := func(levels int) []byte {
		buf := make([]byte, 0, 2*levels+1)
		for i := 0; i < levels; i++ {
			buf = append(buf, byte(KindSet), 1)
		}
		return append(buf, byte(KindNull))
	}

	// Nesting at the limit decodes.
	v, n, err := DecodeValue(nested(maxDecodeDepth))
	if err != nil {
		t.Fatalf("decode at depth limit: %v", err)
	}
	if n != 2*maxDecodeDepth+1 || v.Kind() != KindSet {
		t.Fatalf("depth-limit decode consumed %d bytes, kind %v", n, v.Kind())
	}

	// One level past the limit is refused as corrupt.
	if _, _, err := DecodeValue(nested(maxDecodeDepth + 1)); err == nil {
		t.Fatal("nesting past the limit decoded")
	}

	// A hostile stream of set headers — the stack-overflow shape a
	// network peer can cheaply send — must fail, not crash. Truncated on
	// purpose: the depth check has to fire long before the data runs out.
	if _, _, err := DecodeValue(nested(1 << 20)[:1<<20]); err == nil {
		t.Fatal("hostile deep nesting decoded")
	}
}

func TestKeyOrderMatchesCompare(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	vals := make([]Value, 120)
	for i := range vals {
		vals[i] = randValue(r, 2)
	}
	for _, a := range vals {
		ka := Key(a)
		for _, b := range vals {
			kb := Key(b)
			if sign(bytes.Compare(ka, kb)) != sign(Compare(a, b)) {
				t.Fatalf("key order disagrees with Compare for %v vs %v", a, b)
			}
		}
	}
}

func TestKeyStringEscaping(t *testing.T) {
	// "a\x00b" must sort between "a" and "a\x01".
	a := Key(String("a"))
	ab0 := Key(String("a\x00b"))
	a1 := Key(String("a\x01"))
	if !(bytes.Compare(a, ab0) < 0 && bytes.Compare(ab0, a1) < 0) {
		t.Fatal("zero-byte escaping breaks string key order")
	}
}

func TestKeyNumericMixes(t *testing.T) {
	pairs := [][2]Value{
		{Int(2), Float(2.5)},
		{Float(-0.5), Int(0)},
		{Int(-10), Int(10)},
		{Float(math.Inf(-1)), Int(math.MinInt32)},
	}
	for _, p := range pairs {
		if sign(bytes.Compare(Key(p[0]), Key(p[1]))) != sign(Compare(p[0], p[1])) {
			t.Errorf("key order wrong for %v vs %v", p[0], p[1])
		}
	}
}

func TestObjectCodecRoundTrip(t *testing.T) {
	o := NewObject(MakeOID(7, 123))
	o.Set(1, Int(7500))
	o.Set(2, String("Vehicle"))
	o.Set(9, Ref(MakeOID(8, 4)))
	o.Set(11, Set(Int(1), Int(2)))

	enc := EncodeObject(o)
	got, err := DecodeObject(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.OID != o.OID {
		t.Fatalf("OID %v != %v", got.OID, o.OID)
	}
	if got.NumAttrs() != o.NumAttrs() {
		t.Fatalf("attr count %d != %d", got.NumAttrs(), o.NumAttrs())
	}
	for _, av := range o.AttrVals() {
		if !Equal(got.Get(av.ID), av.V) {
			t.Errorf("attr %d: %v != %v", av.ID, got.Get(av.ID), av.V)
		}
	}
}

func TestObjectEncodingDeterministic(t *testing.T) {
	build := func() *Object {
		o := NewObject(MakeOID(3, 1))
		for i := AttrID(1); i <= 20; i++ {
			o.Set(i, Int(int64(i)*3))
		}
		return o
	}
	a, b := EncodeObject(build()), EncodeObject(build())
	if !bytes.Equal(a, b) {
		t.Fatal("object encoding not deterministic")
	}
}

func TestObjectSetNullDeletes(t *testing.T) {
	o := NewObject(MakeOID(1, 1))
	o.Set(5, Int(1))
	o.Set(5, Null)
	if _, present := o.Lookup(5); present {
		t.Fatal("setting null should delete the stored attribute")
	}
	if !o.Get(5).IsNull() {
		t.Fatal("Get of absent attribute should be null")
	}
}

func TestObjectClone(t *testing.T) {
	o := NewObject(MakeOID(1, 1))
	o.Set(1, Int(10))
	c := o.Clone()
	c.Set(1, Int(20))
	if v, _ := o.Get(1).AsInt(); v != 10 {
		t.Fatal("clone aliases original attribute map")
	}
}

func TestDecodeObjectCorrupt(t *testing.T) {
	o := NewObject(MakeOID(2, 2))
	o.Set(1, String("x"))
	enc := EncodeObject(o)
	for cut := 1; cut < len(enc); cut++ {
		if _, err := DecodeObject(enc[:cut]); err == nil {
			// Some prefixes may decode as a smaller valid object only if
			// counts allow; an object with one attr must fail at any cut.
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestKeyExact(t *testing.T) {
	const big = int64(1) << 53
	for _, tc := range []struct {
		v    Value
		want bool
	}{
		{Int(big - 1), true}, {Int(-big + 1), true}, {Int(big), false}, {Int(-big), false},
		{Float(1.5), true}, {Float(float64(big)), false}, {Float(math.NaN()), false},
		{String("x"), true}, {Null, true},
	} {
		if got := KeyExact(tc.v); got != tc.want {
			t.Errorf("KeyExact(%s) = %v, want %v", tc.v, got, tc.want)
		}
	}
	// The reason: 2^53 and 2^53+1 share a key though Compare tells them apart.
	if !bytes.Equal(Key(Int(big)), Key(Int(big+1))) || Compare(Int(big), Int(big+1)) == 0 {
		t.Error("expected 2^53 and 2^53+1 to share a key and differ under Compare")
	}
}

func TestDecodeIntKeyRoundTrip(t *testing.T) {
	const big = int64(1) << 53
	ints := []int64{0, 1, -1, 2, -2, 1000, -1000, big - 1, -big + 1, math.MaxInt32, math.MinInt32}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		ints = append(ints, r.Int63n(2*big-1)-(big-1))
	}
	for _, i := range ints {
		v, ok := DecodeIntKey(Key(Int(i)))
		if !ok || v.Kind() != KindInt || Compare(v, Int(i)) != 0 {
			t.Fatalf("DecodeIntKey(Key(%d)) = %s, %v", i, v, ok)
		}
		// A float with an integral value shares the integer's key.
		if v, ok := DecodeIntKey(Key(Float(float64(i)))); !ok || Compare(v, Int(i)) != 0 {
			t.Fatalf("DecodeIntKey(Key(%d.0)) = %s, %v", i, v, ok)
		}
	}
	// From 2^53 up a key stands for several integers: it decodes to one of
	// them, and KeyExact says the decode is not the value.
	if v, ok := DecodeIntKey(Key(Int(big + 1))); !ok || KeyExact(v) {
		t.Errorf("DecodeIntKey(Key(2^53+1)) = %s, %v; want an inexact integer", v, ok)
	}
	for _, v := range []Value{Float(1.5), Float(-0.25), Float(math.NaN()), Float(math.Inf(1)),
		Float(1e300), String("7"), Bool(true), Null, Ref(MakeOID(3, 4))} {
		if got, ok := DecodeIntKey(Key(v)); ok {
			t.Errorf("DecodeIntKey(Key(%s)) = %s, want no integer", v, got)
		}
	}
}
