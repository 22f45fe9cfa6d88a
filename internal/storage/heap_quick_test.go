package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// TestHeapRandomizedAgainstMap drives a heap with a random mix of inserts,
// updates and deletes — including payloads that cross the inline/overflow
// boundary in both directions — and checks full agreement with a reference
// map after every step and at the end via Scan.
func TestHeapRandomizedAgainstMap(t *testing.T) {
	s, _ := openTestStore(t, 128)
	defer s.Close()
	h, err := NewHeap(s.pool)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	ref := map[RID][]byte{}
	var rids []RID

	payload := func() []byte {
		// Mix sizes: tiny, page-scale, and multi-page overflow.
		var n int
		switch r.Intn(4) {
		case 0:
			n = r.Intn(64)
		case 1:
			n = 1000 + r.Intn(2000)
		case 2:
			n = maxInline - 5 + r.Intn(10) // straddle the boundary
		default:
			n = PageSize + r.Intn(2*PageSize)
		}
		buf := make([]byte, n)
		r.Read(buf)
		return buf
	}

	for step := 0; step < 800; step++ {
		switch {
		case len(rids) == 0 || r.Intn(3) == 0: // insert
			data := payload()
			rid, err := h.Insert(data)
			if err != nil {
				t.Fatalf("step %d: insert %d bytes: %v", step, len(data), err)
			}
			if _, dup := ref[rid]; dup {
				t.Fatalf("step %d: RID %v reused while live", step, rid)
			}
			ref[rid] = data
			rids = append(rids, rid)
		case r.Intn(3) == 0: // delete
			i := r.Intn(len(rids))
			rid := rids[i]
			if err := h.Delete(rid); err != nil {
				t.Fatalf("step %d: delete %v: %v", step, rid, err)
			}
			delete(ref, rid)
			rids = append(rids[:i], rids[i+1:]...)
		default: // update (may relocate)
			i := r.Intn(len(rids))
			rid := rids[i]
			data := payload()
			nrid, err := h.Update(rid, data)
			if err != nil {
				t.Fatalf("step %d: update %v to %d bytes: %v", step, rid, len(data), err)
			}
			if nrid != rid {
				delete(ref, rid)
				rids[i] = nrid
			}
			ref[nrid] = data
		}
		// Spot-check a random survivor.
		if len(rids) > 0 {
			rid := rids[r.Intn(len(rids))]
			got, err := read(h, rid)
			if err != nil {
				t.Fatalf("step %d: read %v: %v", step, rid, err)
			}
			if !bytes.Equal(got, ref[rid]) {
				t.Fatalf("step %d: %v payload mismatch (%d vs %d bytes)", step, rid, len(got), len(ref[rid]))
			}
		}
	}

	// Full verification by scan.
	seen := 0
	err = h.Scan(func(rid RID, data []byte) bool {
		want, ok := ref[rid]
		if !ok {
			t.Errorf("scan found unexpected record %v", rid)
			return true
		}
		if !bytes.Equal(data, want) {
			t.Errorf("scan payload mismatch at %v", rid)
		}
		seen++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(ref) {
		t.Fatalf("scan saw %d records, want %d", seen, len(ref))
	}
	// Reads of deleted RIDs must fail.
	if len(rids) > 0 {
		rid := rids[0]
		if err := h.Delete(rid); err != nil {
			t.Fatal(err)
		}
		if _, err := read(h, rid); !errors.Is(err, ErrNoRecord) {
			t.Fatalf("read of deleted record: %v", err)
		}
	}
}
