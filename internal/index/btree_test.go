package index

import (
	"bytes"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
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

// recount is a Summary computed the long way, one posting at a time, with
// the magnitude in a big.Int: the reference the node summaries are held to.
type recount struct {
	n, sum, inexact int64
	mag             big.Int
}

func (r *recount) add(key []byte) {
	r.n++
	v, ok := model.DecodeIntKey(key)
	if !ok || !model.KeyExact(v) {
		r.inexact++
		return
	}
	i, _ := v.AsInt()
	r.sum += i
	r.mag.Add(&r.mag, new(big.Int).Abs(big.NewInt(i)))
}

func (r *recount) equals(s Summary) bool {
	mag := new(big.Int).Lsh(new(big.Int).SetUint64(s.mag.hi), 64)
	mag.Or(mag, new(big.Int).SetUint64(s.mag.lo))
	return r.n == s.N && r.sum == s.Sum && r.inexact == s.Inexact && r.mag.Cmp(mag) == 0
}

func (r *recount) String() string {
	return fmt.Sprintf("{N:%d Sum:%d Inexact:%d mag:%s}", r.n, r.sum, r.inexact, &r.mag)
}

// checkNodeSums holds the summary of every node under n to a recount of
// its subtree, per class, and returns that recount.
func checkNodeSums(t testing.TB, n node) map[model.ClassID]*recount {
	t.Helper()
	want := map[model.ClassID]*recount{}
	at := func(c model.ClassID) *recount {
		if want[c] == nil {
			want[c] = &recount{}
		}
		return want[c]
	}
	switch n := n.(type) {
	case *leaf:
		for i, posts := range n.posts {
			for _, oid := range posts {
				at(oid.Class()).add(n.keys[i])
			}
		}
	case *inner:
		for _, child := range n.children {
			for c, r := range checkNodeSums(t, child) {
				w := at(c)
				w.n, w.sum, w.inexact = w.n+r.n, w.sum+r.sum, w.inexact+r.inexact
				w.mag.Add(&w.mag, &r.mag)
			}
		}
	}
	got := *n.summary()
	if len(got) != len(want) {
		t.Fatalf("node summary has %d classes, its subtree %d", len(got), len(want))
	}
	for _, cs := range got {
		if w := want[cs.class]; w == nil || !w.equals(cs.Summary) {
			t.Fatalf("class %d: node summary %+v, recount %v", cs.class, cs.Summary, w)
		}
	}
	return want
}

// checkSummaries checks the tree's summaries three ways: every node's
// against a recount of its subtree, and Summarize and Edge over each probe
// range and class set against a brute-force pass over every key.
func checkSummaries(t testing.TB, tr *Tree, probes []bounds, classSets [][]model.ClassID) {
	t.Helper()
	checkNodeSums(t, tr.root)
	type entry struct {
		key   []byte
		posts []model.OID
	}
	var all []entry
	tr.Range(nil, nil, true, true, func(k []byte, posts []model.OID) bool {
		all = append(all, entry{k, posts})
		return true
	})
	inside := func(k []byte, b bounds) bool {
		lo, hi := 1, -1
		if b.lo != nil {
			lo = bytes.Compare(k, b.lo)
		}
		if b.hi != nil {
			hi = bytes.Compare(k, b.hi)
		}
		return (lo > 0 || (lo == 0 && b.loInc)) && (hi < 0 || (hi == 0 && b.hiInc))
	}
	for _, b := range probes {
		for _, classes := range classSets {
			var want recount
			var first, last []byte
			for _, e := range all {
				if !inside(e.key, b) {
					continue
				}
				for _, oid := range e.posts {
					if classes == nil || slices.Contains(classes, oid.Class()) {
						want.add(e.key)
						if first == nil {
							first = e.key
						}
						last = e.key
					}
				}
			}
			var v Visits
			if got := tr.Summarize(b.lo, b.hi, b.loInc, b.hiInc, classes, &v); !want.equals(got) {
				t.Fatalf("Summarize %x..%x (%v,%v) classes %v = %+v, brute force %v",
					b.lo, b.hi, b.loInc, b.hiInc, classes, got, &want)
			}
			// Keys are visited only in the at most two leaves the bounds
			// cut; every other subtree counts from its summary.
			if v.Keys > 2*btreeOrder || v.Subtrees > 2*btreeOrder*int64(tr.Height()) {
				t.Fatalf("Summarize %x..%x visited %d keys and %d subtrees in a tree of height %d",
					b.lo, b.hi, v.Keys, v.Subtrees, tr.Height())
			}
			if got := tr.Edge(b.lo, b.hi, b.loInc, b.hiInc, classes, false); !bytes.Equal(got, first) {
				t.Fatalf("first key of %x..%x classes %v = %x, brute force %x", b.lo, b.hi, classes, got, first)
			}
			if got := tr.Edge(b.lo, b.hi, b.loInc, b.hiInc, classes, true); !bytes.Equal(got, last) {
				t.Fatalf("last key of %x..%x classes %v = %x, brute force %x", b.lo, b.hi, classes, got, last)
			}
		}
	}
}

// summaryValues are the values the summary tests key by beside small
// integers: the edges of the exact range, keys that are not exact integers
// (2^53 and up, fractions, a string, a boolean) and the int64 extremes.
var summaryValues = []model.Value{
	model.Int(1<<53 - 1), model.Int(-(1<<53 - 1)), model.Int(1 << 53), model.Int(1<<53 + 1),
	model.Int(-(1 << 53)), model.Int(1 << 60), model.Int(-(1 << 62)), model.Int(math.MaxInt64),
	model.Int(math.MinInt64), model.Float(2.5), model.Float(-0.5), model.Float(1e300),
	model.String("x"), model.String(""), model.Bool(true), model.Int(0),
}

// randomProbes draws n key ranges over the given values, each side open one
// time in five, and adds the whole range.
func randomProbes(r *rand.Rand, vals []model.Value, n int) []bounds {
	probes := []bounds{{}}
	side := func() []byte {
		if r.Intn(5) == 0 {
			return nil
		}
		return model.Key(vals[r.Intn(len(vals))])
	}
	for range n {
		probes = append(probes, bounds{side(), side(), r.Intn(2) == 0, r.Intn(2) == 0})
	}
	return probes
}

// TestTreeSummaryMatchesRecount keeps the node summaries honest through
// random inserts, duplicate inserts, deletes down to empty leaves, and leaf
// and inner splits over four classes: after each batch every node's summary
// equals a recount of its subtree, and Summarize and the first/last-key
// descent over random ranges and class sets equal brute force.
func TestTreeSummaryMatchesRecount(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	classes := []model.ClassID{20, 21, 22, 23}
	classSets := [][]model.ClassID{nil, {20}, {21, 23}, {24}, classes}
	var vals []model.Value
	for i := -3000; i <= 3000; i++ {
		vals = append(vals, model.Int(int64(i)))
	}
	vals = append(vals, summaryValues...)
	tr := NewTree()
	type pair struct {
		key []byte
		oid model.OID
	}
	var live []pair
	insert := func(n int, pick func() model.Value) {
		for range n {
			p := pair{model.Key(pick()), model.MakeOID(classes[r.Intn(len(classes))], uint64(1+r.Intn(40)))}
			tr.Insert(p.key, p.oid)
			live = append(live, p)
		}
	}
	remove := func(keep func(pair) bool) {
		kept := live[:0]
		for _, p := range live {
			if keep(p) {
				kept = append(kept, p)
			} else {
				tr.Delete(p.key, p.oid)
			}
		}
		live = kept
	}
	anyVal := func() model.Value { return vals[r.Intn(len(vals))] }
	batches := []struct {
		name string
		run  func()
	}{
		{"inserts", func() { insert(6000, anyVal) }},
		{"duplicate inserts", func() {
			for _, p := range live[:1000] {
				tr.Insert(p.key, p.oid)
			}
		}},
		{"random deletes", func() { remove(func(pair) bool { return r.Intn(2) == 0 }) }},
		{"deletes that empty leaves", func() {
			lo, hi := model.Key(model.Int(-1000)), model.Key(model.Int(1000))
			remove(func(p pair) bool { return bytes.Compare(p.key, lo) < 0 || bytes.Compare(p.key, hi) > 0 })
		}},
		{"inexact keys", func() { insert(400, func() model.Value { return summaryValues[r.Intn(len(summaryValues))] }) }},
		{"deletes of one class", func() { remove(func(p pair) bool { return p.oid.Class() != 21 }) }},
		{"delete everything", func() { remove(func(pair) bool { return false }) }},
		{"inserts into emptied leaves", func() { insert(2000, anyVal) }},
	}
	for _, b := range batches {
		b.run()
		if b.name == "inserts" && tr.Height() < 3 {
			t.Fatalf("height %d after %d inserts: no inner split", tr.Height(), len(live))
		}
		t.Run(b.name, func(t *testing.T) {
			checkSummaries(t, tr, randomProbes(r, vals, 60), classSets)
		})
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
