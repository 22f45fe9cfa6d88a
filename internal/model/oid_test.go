package model

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestMakeOIDRoundTrip(t *testing.T) {
	cases := []struct {
		class ClassID
		seq   uint64
	}{
		{0, 0},
		{1, 1},
		{42, 1 << 20},
		{MaxClassID, 1<<40 - 1},
	}
	for _, c := range cases {
		oid := MakeOID(c.class, c.seq)
		if oid.Class() != c.class {
			t.Errorf("MakeOID(%d,%d).Class() = %d", c.class, c.seq, oid.Class())
		}
		if oid.Seq() != c.seq {
			t.Errorf("MakeOID(%d,%d).Seq() = %d", c.class, c.seq, oid.Seq())
		}
	}
}

func TestMakeOIDProperty(t *testing.T) {
	f := func(class uint32, seq uint64) bool {
		c := ClassID(class) & MaxClassID
		s := seq & (1<<40 - 1)
		oid := MakeOID(c, s)
		return oid.Class() == c && oid.Seq() == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMakeOIDPanicsOnOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range class")
		}
	}()
	MakeOID(MaxClassID+1, 0)
}

func TestNilOID(t *testing.T) {
	if !NilOID.IsNil() {
		t.Fatal("NilOID.IsNil() = false")
	}
	if NilOID.String() != "nil" {
		t.Fatalf("NilOID.String() = %q", NilOID.String())
	}
	oid := MakeOID(3, 7)
	if oid.IsNil() {
		t.Fatal("non-nil OID reported nil")
	}
	if oid.String() != "3:7" {
		t.Fatalf("String() = %q, want 3:7", oid.String())
	}
}

func TestOIDZeroSeqZeroClassIsNil(t *testing.T) {
	// MakeOID(0,0) collides with the null reference by construction; the
	// catalog never assigns class id 0, so this documents the invariant.
	if !MakeOID(0, 0).IsNil() {
		t.Fatal("MakeOID(0,0) should be NilOID")
	}
}

func TestParseOIDRoundTrip(t *testing.T) {
	f := func(raw uint64) bool {
		o := OID(raw)
		got, err := ParseOID(o.String())
		at, aerr := ParseOID("@" + o.String())
		return err == nil && got == o && aerr == nil && at == o
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	for _, o := range []OID{NilOID, MakeOID(16, 1), MakeOID(MaxClassID, maxSeq)} {
		if got, err := ParseOID(o.String()); err != nil || got != o {
			t.Errorf("ParseOID(%q) = %v, %v; want %v", o.String(), got, err, o)
		}
	}
}

// TestParseOIDRejects: a part out of range is an error, never an OID of
// another class (the hand-built class<<40|seq read @16777216:5 as 0:5 and
// @1:1099511627776 as 2:0).
func TestParseOIDRejects(t *testing.T) {
	for _, s := range []string{
		"@16777216:5", "@1:1099511627776", "@-1:2", "@1:-2", "@1", "@:1", "@1:",
		"@1:2:3", "@x:1", "@1:y", "", "@", "@@1:2", "1 :2",
	} {
		if o, err := ParseOID(s); !errors.Is(err, ErrBadOID) {
			t.Errorf("ParseOID(%q) = %v, %v; want ErrBadOID", s, o, err)
		}
	}
}
