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

// keys returns iv's bounds as keys, nil for an open side.
func (iv Interval) keys() (lo, hi []byte) {
	if !iv.Lo.IsNull() {
		lo = model.Key(iv.Lo)
	}
	if !iv.Hi.IsNull() {
		hi = model.Key(iv.Hi)
	}
	return lo, hi
}

// scanBatch bounds how many postings one read-lock hold visits (about one
// leaf's worth); a batch always ends on a key boundary.
const scanBatch = 64

// Scan is the one read path of an index's postings: it calls fn with every
// OID indexed under a key in iv, and that key, restricted to the given
// classes (nil = all), in (key, OID) order, until fn returns false. For a
// CH index a query scoped `ONLY C` passes just [C]; a hierarchy-scoped
// query passes the descendant set or nil. fn may keep the key: key bytes
// are never rewritten.
//
// Maintenance mutates the tree under the manager's write lock, so Scan
// copies a bounded batch of postings under the read lock, releases it, and
// only then calls fn — fn fetches objects, and index maintenance fetches
// objects under the write lock. The next batch resumes strictly after the
// last key copied by descending from the root again, so a leaf split or a
// lazy delete between batches can neither skip nor repeat a key.
func (idx *Index) Scan(iv Interval, classes []model.ClassID, fn func(key []byte, oid model.OID) bool) {
	if iv.Empty() {
		return
	}
	lo, hi := iv.keys()
	loInc := iv.LoInc
	type posting struct {
		key []byte
		oid model.OID
	}
	var buf [scanBatch]posting
	for {
		batch, visited, more := buf[:0], 0, false
		idx.mu.RLock()
		idx.tree.Range(lo, hi, loInc, iv.HiInc, func(key []byte, posts []model.OID) bool {
			if visited >= scanBatch {
				more = true
				return false
			}
			visited += len(posts)
			for _, oid := range posts {
				if classes == nil || slices.Contains(classes, oid.Class()) {
					batch = append(batch, posting{key, oid})
				}
			}
			lo = key
			return true
		})
		idx.mu.RUnlock()
		loInc = false
		for _, p := range batch {
			if !fn(p.key, p.oid) {
				return
			}
		}
		if !more {
			return
		}
	}
}

// Summarize is the read path of a statement answered from the keys alone:
// the Summary of the postings of the given classes under the keys of iv,
// read under the read lock from the tree's node summaries (Tree.Summarize),
// with what it visited added to v. Nothing is fetched.
func (idx *Index) Summarize(iv Interval, classes []model.ClassID, v *Visits) Summary {
	if iv.Empty() {
		return Summary{}
	}
	lo, hi := iv.keys()
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	return idx.tree.Summarize(lo, hi, iv.LoInc, iv.HiInc, classes, v)
}

// Edge returns the smallest key in iv that indexes an instance of one of
// the given classes — the largest when last is set — or nil when none does
// (Tree.Edge).
func (idx *Index) Edge(iv Interval, classes []model.ClassID, last bool) []byte {
	if iv.Empty() {
		return nil
	}
	lo, hi := iv.keys()
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	return idx.tree.Edge(lo, hi, iv.LoInc, iv.HiInc, classes, last)
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

// Lookup returns the OIDs of the given classes (nil = all) under exactly v.
func (idx *Index) Lookup(v model.Value, classes []model.ClassID) []model.OID {
	var out []model.OID
	idx.Scan(Point(v), classes, func(_ []byte, oid model.OID) bool {
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
