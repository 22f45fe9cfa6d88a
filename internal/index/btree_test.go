package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"oodb/internal/model"
)

func key(i int) []byte { return model.Key(model.Int(int64(i))) }
func oid(i int) model.OID {
	return model.MakeOID(20, uint64(i)+1)
}

func TestTreeInsertSearch(t *testing.T) {
	tr := NewTree()
	for i := 0; i < 1000; i++ {
		tr.Insert(key(i), oid(i))
	}
	if tr.Len() != 1000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := 0; i < 1000; i++ {
		posts := tr.Search(key(i))
		if len(posts) != 1 || posts[0] != oid(i) {
			t.Fatalf("Search(%d) = %v", i, posts)
		}
	}
	if tr.Search(key(5000)) != nil {
		t.Error("search of absent key returned postings")
	}
	if tr.Height() < 2 {
		t.Error("1000 keys should split the root")
	}
}

func TestTreeDuplicateKeys(t *testing.T) {
	tr := NewTree()
	for i := 0; i < 50; i++ {
		tr.Insert(key(7), oid(i))
	}
	// Duplicate (key, oid) pair ignored.
	tr.Insert(key(7), oid(0))
	posts := tr.Search(key(7))
	if len(posts) != 50 {
		t.Fatalf("postings = %d, want 50", len(posts))
	}
	// Postings sorted.
	for i := 1; i < len(posts); i++ {
		if posts[i-1] >= posts[i] {
			t.Fatal("postings not sorted")
		}
	}
	if tr.Len() != 50 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestTreeDelete(t *testing.T) {
	tr := NewTree()
	for i := 0; i < 500; i++ {
		tr.Insert(key(i), oid(i))
	}
	for i := 0; i < 500; i += 2 {
		if !tr.Delete(key(i), oid(i)) {
			t.Fatalf("delete %d reported absent", i)
		}
	}
	if tr.Delete(key(0), oid(0)) {
		t.Error("double delete reported present")
	}
	if tr.Delete(key(9999), oid(1)) {
		t.Error("delete of absent key reported present")
	}
	for i := 0; i < 500; i++ {
		posts := tr.Search(key(i))
		if i%2 == 0 && posts != nil {
			t.Fatalf("deleted key %d still present", i)
		}
		if i%2 == 1 && len(posts) != 1 {
			t.Fatalf("surviving key %d lost", i)
		}
	}
	if tr.Len() != 250 {
		t.Errorf("Len = %d, want 250", tr.Len())
	}
}

func TestTreeRange(t *testing.T) {
	tr := NewTree()
	for i := 0; i < 100; i++ {
		tr.Insert(key(i), oid(i))
	}
	collectFrom := func(lo, hi []byte, loInc, hiInc bool) []int {
		var out []int
		tr.Range(lo, hi, loInc, hiInc, func(k []byte, posts []model.OID) bool {
			out = append(out, int(posts[0].Seq())-1)
			return true
		})
		return out
	}
	collect := func(lo, hi []byte, hiInc bool) []int { return collectFrom(lo, hi, true, hiInc) }
	got := collect(key(10), key(20), false)
	if len(got) != 10 || got[0] != 10 || got[9] != 19 {
		t.Fatalf("range [10,20) = %v", got)
	}
	got = collect(key(10), key(20), true)
	if len(got) != 11 || got[10] != 20 {
		t.Fatalf("range [10,20] = %v", got)
	}
	got = collect(nil, key(5), true)
	if len(got) != 6 {
		t.Fatalf("range (-inf,5] = %v", got)
	}
	got = collect(key(95), nil, false)
	if len(got) != 5 || got[4] != 99 {
		t.Fatalf("range [95,inf) = %v", got)
	}
	// Exclusive lower bound, including one that is the last key of a leaf
	// (the walk must move on to the next leaf) and one that is absent.
	got = collectFrom(key(10), key(13), false, true)
	if len(got) != 3 || got[0] != 11 || got[2] != 13 {
		t.Fatalf("range (10,13] = %v", got)
	}
	for lo := 0; lo < 99; lo++ {
		if got = collectFrom(key(lo), nil, false, false); len(got) != 99-lo || got[0] != lo+1 {
			t.Fatalf("range (%d,inf) = %v", lo, got)
		}
	}
	if got = collectFrom(key(100), nil, false, false); len(got) != 0 {
		t.Fatalf("range (100,inf) = %v", got)
	}
	// Early stop.
	n := 0
	tr.Range(nil, nil, true, false, func([]byte, []model.OID) bool { n++; return n < 7 })
	if n != 7 {
		t.Errorf("early stop at %d", n)
	}
}

func TestTreeRandomizedAgainstMap(t *testing.T) {
	// Property-style: the tree must agree with a reference map under a
	// random mix of inserts and deletes over a small key space (forcing
	// heavy duplicate traffic and leaf churn).
	r := rand.New(rand.NewSource(3))
	tr := NewTree()
	ref := map[string]map[model.OID]bool{}
	for step := 0; step < 30000; step++ {
		k := key(r.Intn(200))
		o := oid(r.Intn(50))
		ks := string(k)
		if r.Intn(3) > 0 {
			tr.Insert(k, o)
			if ref[ks] == nil {
				ref[ks] = map[model.OID]bool{}
			}
			ref[ks][o] = true
		} else {
			want := ref[ks][o]
			got := tr.Delete(k, o)
			if got != want {
				t.Fatalf("step %d: Delete = %v, want %v", step, got, want)
			}
			delete(ref[ks], o)
		}
	}
	// Full agreement check.
	total := 0
	for ks, set := range ref {
		posts := tr.Search([]byte(ks))
		if len(posts) != len(set) {
			t.Fatalf("key %x: %d postings, want %d", ks, len(posts), len(set))
		}
		for _, o := range posts {
			if !set[o] {
				t.Fatalf("key %x: stray oid %v", ks, o)
			}
		}
		total += len(set)
	}
	if tr.Len() != total {
		t.Errorf("Len = %d, want %d", tr.Len(), total)
	}
	// Range over everything must be in sorted key order.
	var prev []byte
	tr.Range(nil, nil, true, false, func(k []byte, _ []model.OID) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatal("range keys out of order")
		}
		prev = append(prev[:0], k...)
		return true
	})
}

func TestTreeStringKeys(t *testing.T) {
	tr := NewTree()
	words := []string{"Detroit", "Austin", "Tokyo", "Osaka", "Berlin"}
	for i, w := range words {
		tr.Insert(model.Key(model.String(w)), oid(i))
	}
	sorted := append([]string(nil), words...)
	sort.Strings(sorted)
	var got []string
	tr.Range(nil, nil, true, false, func(k []byte, posts []model.OID) bool {
		got = append(got, words[posts[0].Seq()-1])
		return true
	})
	for i := range sorted {
		if got[i] != sorted[i] {
			t.Fatalf("order = %v, want %v", got, sorted)
		}
	}
}

func TestTreeLargeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale tree test")
	}
	tr := NewTree()
	const n = 100000
	perm := rand.New(rand.NewSource(8)).Perm(n)
	for _, i := range perm {
		tr.Insert(key(i), oid(i))
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := 0; i < n; i += 997 {
		if posts := tr.Search(key(i)); len(posts) != 1 {
			t.Fatalf("key %d lost", i)
		}
	}
	if h := tr.Height(); h > 5 {
		t.Errorf("height %d too tall for %d keys at order %d", h, n, btreeOrder)
	}
}

func BenchmarkTreeInsert(b *testing.B) {
	tr := NewTree()
	for i := 0; i < b.N; i++ {
		tr.Insert(key(i), oid(i))
	}
}

func BenchmarkTreeSearch(b *testing.B) {
	tr := NewTree()
	for i := 0; i < 100000; i++ {
		tr.Insert(key(i), oid(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Search(key(i % 100000))
	}
}

func ExampleTree() {
	tr := NewTree()
	tr.Insert(model.Key(model.Int(8000)), model.MakeOID(20, 1))
	tr.Insert(model.Key(model.Int(7000)), model.MakeOID(20, 2))
	posts := tr.Search(model.Key(model.Int(8000)))
	fmt.Println(len(posts), posts[0])
	// Output: 1 20:1
}
