package index

import (
	"slices"

	"oodb/internal/model"
)

// Interval is a range of indexed values. A null bound leaves that side
// open; LoInc/HiInc say whether a present bound itself belongs to the
// interval.
type Interval struct {
	Lo, Hi       model.Value
	LoInc, HiInc bool
}

// Point is the interval holding exactly v.
func Point(v model.Value) Interval {
	return Interval{Lo: v, Hi: v, LoInc: true, HiInc: true}
}

// NarrowLo intersects the interval with "value > v" (>= when inc).
func (iv *Interval) NarrowLo(v model.Value, inc bool) {
	c := 1
	if !iv.Lo.IsNull() {
		c = model.Compare(v, iv.Lo)
	}
	switch {
	case c > 0:
		iv.Lo, iv.LoInc = v, inc
	case c == 0:
		iv.LoInc = iv.LoInc && inc
	}
}

// NarrowHi intersects the interval with "value < v" (<= when inc).
func (iv *Interval) NarrowHi(v model.Value, inc bool) {
	c := -1
	if !iv.Hi.IsNull() {
		c = model.Compare(v, iv.Hi)
	}
	switch {
	case c < 0:
		iv.Hi, iv.HiInc = v, inc
	case c == 0:
		iv.HiInc = iv.HiInc && inc
	}
}

// Empty reports whether no value can lie in the interval.
func (iv Interval) Empty() bool {
	if iv.Lo.IsNull() || iv.Hi.IsNull() {
		return false
	}
	c := model.Compare(iv.Lo, iv.Hi)
	return c > 0 || (c == 0 && !(iv.LoInc && iv.HiInc))
}

// String renders the interval in bracket notation, e.g. [120,160).
func (iv Interval) String() string {
	lo, hi := "(-inf", "+inf)"
	if !iv.Lo.IsNull() {
		lo = "(" + iv.Lo.String()
		if iv.LoInc {
			lo = "[" + iv.Lo.String()
		}
	}
	if !iv.Hi.IsNull() {
		hi = iv.Hi.String() + ")"
		if iv.HiInc {
			hi = iv.Hi.String() + "]"
		}
	}
	return lo + "," + hi
}

// scanBatch bounds how many postings one read-lock hold visits (about one
// leaf's worth); a batch always ends on a key boundary.
const scanBatch = 64

// walk is the batching under both read paths: it visits the keys of iv in
// order, handing collect each key and its postings under the read lock
// until batch postings were seen (a batch ends on a key boundary), then
// releases the lock and calls flush, which reports whether to go on. The
// next batch resumes strictly after the last key collected by descending
// from the root again, so a leaf split or a lazy delete between batches can
// neither skip nor repeat a key. collect may keep a key, not the postings.
func (idx *Index) walk(iv Interval, batch int, collect func(key []byte, posts []model.OID), flush func() bool) {
	if iv.Empty() {
		return
	}
	var lo, hi []byte
	if !iv.Lo.IsNull() {
		lo = model.Key(iv.Lo)
	}
	if !iv.Hi.IsNull() {
		hi = model.Key(iv.Hi)
	}
	loInc := iv.LoInc
	for {
		visited, more := 0, false
		idx.mu.RLock()
		idx.tree.Range(lo, hi, loInc, iv.HiInc, func(key []byte, posts []model.OID) bool {
			if visited >= batch {
				more = true
				return false
			}
			visited += len(posts)
			collect(key, posts)
			lo = key
			return true
		})
		idx.mu.RUnlock()
		loInc = false
		if !flush() || !more {
			return
		}
	}
}

// Scan is the one read path of an index's postings: it calls fn with every
// OID indexed under a key in iv, restricted to the given classes (nil = no
// filter), in (key, OID) order, until fn returns false. For a CH index a
// query scoped `ONLY C` passes just {C}; a hierarchy-scoped query passes the
// descendant set or nil.
//
// Maintenance mutates the tree under the manager's write lock, so Scan
// copies a bounded batch of postings under the read lock, releases it, and
// only then calls fn — fn fetches objects, and index maintenance fetches
// objects under the write lock.
func (idx *Index) Scan(iv Interval, classes map[model.ClassID]bool, fn func(model.OID) bool) {
	var buf [scanBatch]model.OID
	batch := buf[:0]
	idx.walk(iv, scanBatch, func(_ []byte, posts []model.OID) {
		for _, oid := range posts {
			if classes == nil || classes[oid.Class()] {
				batch = append(batch, oid)
			}
		}
	}, func() bool {
		for _, oid := range batch {
			if !fn(oid) {
				return false
			}
		}
		batch = batch[:0]
		return true
	})
}

// countBatch bounds how many postings one read-lock hold of KeyCounts
// counts. Nothing is fetched under it, so it is larger than scanBatch.
const countBatch = 256

// KeyCounts is the read path of an aggregate answered from the keys alone:
// it calls fn with every key in iv that indexes an instance of one of the
// given classes, and how many such instances it indexes, in key order,
// until fn returns false. It batches as Scan does; fn runs outside the read
// lock.
func (idx *Index) KeyCounts(iv Interval, classes []model.ClassID, fn func(key []byte, n int) bool) {
	type keyCount struct {
		key []byte
		n   int
	}
	var buf [countBatch]keyCount // a key holds one posting at least
	batch := buf[:0]
	idx.walk(iv, countBatch, func(key []byte, posts []model.OID) {
		n := 0
		for _, oid := range posts {
			if slices.Contains(classes, oid.Class()) {
				n++
			}
		}
		if n > 0 {
			batch = append(batch, keyCount{key, n})
		}
	}, func() bool {
		for _, kc := range batch {
			if !fn(kc.key, kc.n) {
				return false
			}
		}
		batch = batch[:0]
		return true
	})
}

// Unkeyed returns how many instances of the given classes a one-step index
// holds no key for: those whose attribute is null. It is 0 for a nested
// index, which does not count them.
func (idx *Index) Unkeyed(classes []model.ClassID) int {
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	n := 0
	for _, c := range classes {
		n += idx.unkeyed[c]
	}
	return n
}

// Lookup returns the OIDs indexed under exactly v, filtered by class.
func (idx *Index) Lookup(v model.Value, classes map[model.ClassID]bool) []model.OID {
	var out []model.OID
	idx.Scan(Point(v), classes, func(oid model.OID) bool {
		out = append(out, oid)
		return true
	})
	return out
}

// Len returns the number of live (key, oid) entries.
func (idx *Index) Len() int {
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	return idx.tree.Len()
}
