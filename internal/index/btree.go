// Package index implements kimdb's access paths: a B+tree over
// order-preserving value keys, single-class indexes, class-hierarchy
// indexes (one structure for an attribute over a whole class hierarchy,
// Kim §3.2 / [KIM89b]) and nested-attribute path indexes ([BERT89]).
//
// Index definitions are persisted in the database's index table; index
// contents are memory-resident and rebuilt from class scans at open time —
// the classic rebuild-on-open trade: index maintenance never writes pages,
// at the cost of an O(data) scan when the database opens.
package index

import (
	"bytes"
	"math"
	"math/bits"
	"slices"
	"sort"

	"oodb/internal/model"
)

// btreeOrder is the fan-out of internal nodes. 64 keeps the tree shallow
// while nodes stay cache-friendly.
const btreeOrder = 64

// Tree is an in-memory B+tree mapping byte-comparable keys to postings
// lists of OIDs. Duplicate keys are supported by accumulating OIDs in the
// postings list of a single key entry. Deletes are lazy (no node merging),
// matching the common production trade-off.
//
// Every node carries a per-class Summary of its subtree, kept current by
// Insert, Delete and the splits, so Summarize reads an interval from the
// nodes it covers whole and visits keys only in the leaves its bounds cut.
type Tree struct {
	root node
	size int // number of (key, oid) pairs
}

type node interface {
	// insert adds the pair, whose one-posting summary is d, and returns a
	// new right sibling and its separator key if the node split, else nil.
	insert(key []byte, oid model.OID, d Summary, t *Tree) (sep []byte, right node)
	summary() *sums
}

type leaf struct {
	keys  [][]byte
	posts [][]model.OID
	next  *leaf
	sums  sums
}

type inner struct {
	keys     [][]byte // len = len(children) - 1
	children []node
	sums     sums
}

func (l *leaf) summary() *sums   { return &l.sums }
func (in *inner) summary() *sums { return &in.sums }

// Summary describes a set of postings through their keys: how many there
// are and, over those whose key is an exact integer (model.DecodeIntKey and
// model.KeyExact), the sum of the integers and of their magnitudes. Inexact
// counts the others: a key from 2^53 up, a fraction, a non-number.
type Summary struct {
	N       int64
	Sum     int64 // modulo 2^64; the exact sum when SumExact
	Inexact int64
	mag     u128 // Σ|v|
}

// u128 is an unsigned 128-bit integer: a sum of magnitudes below 2^53 over
// at most 2^63 postings fits.
type u128 struct{ hi, lo uint64 }

// SumExact reports whether Σ|v| < 2^63: then Sum is the exact sum, and no
// order of adding the integers takes a running int64 sum out of range.
func (s Summary) SumExact() bool { return s.mag.hi == 0 && s.mag.lo <= math.MaxInt64 }

// Add adds o's postings to s.
func (s *Summary) Add(o Summary) {
	var c uint64
	s.N, s.Sum, s.Inexact = s.N+o.N, s.Sum+o.Sum, s.Inexact+o.Inexact
	s.mag.lo, c = bits.Add64(s.mag.lo, o.mag.lo, 0)
	s.mag.hi += o.mag.hi + c
}

// sub takes o's postings, which s counts, out of s.
func (s *Summary) sub(o Summary) {
	var b uint64
	s.N, s.Sum, s.Inexact = s.N-o.N, s.Sum-o.Sum, s.Inexact-o.Inexact
	s.mag.lo, b = bits.Sub64(s.mag.lo, o.mag.lo, 0)
	s.mag.hi -= o.mag.hi + b
}

// keySummary is the summary of n postings under key.
func keySummary(key []byte, n int64) Summary {
	v, ok := model.DecodeIntKey(key)
	if !ok || !model.KeyExact(v) {
		return Summary{N: n, Inexact: n}
	}
	i, _ := v.AsInt()
	hi, lo := bits.Mul64(uint64(max(i, -i)), uint64(n))
	return Summary{N: n, Sum: i * n, mag: u128{hi, lo}}
}

// sums is a node's summary per class: one entry for each class with a
// posting under the node.
type sums []classSum

type classSum struct {
	class model.ClassID
	Summary
}

func (ss *sums) add(class model.ClassID, d Summary) {
	for i := range *ss {
		if (*ss)[i].class == class {
			(*ss)[i].Add(d)
			return
		}
	}
	*ss = append(*ss, classSum{class, d})
}

func (ss *sums) sub(class model.ClassID, d Summary) {
	for i := range *ss {
		if (*ss)[i].class == class {
			if (*ss)[i].sub(d); (*ss)[i].N == 0 {
				*ss = slices.Delete(*ss, i, i+1)
			}
			return
		}
	}
}

func (ss *sums) addAll(o sums) {
	for _, cs := range o {
		ss.add(cs.class, cs.Summary)
	}
}

func (ss *sums) subAll(o sums) {
	for _, cs := range o {
		ss.sub(cs.class, cs.Summary)
	}
}

// of is the summary over the given classes (nil: every class).
func (ss sums) of(classes []model.ClassID) Summary {
	var s Summary
	for i := range ss {
		if classes == nil || slices.Contains(classes, ss[i].class) {
			s.Add(ss[i].Summary)
		}
	}
	return s
}

// countIn counts the postings of the given classes (nil: all of them).
func countIn(posts []model.OID, classes []model.ClassID) int64 {
	if classes == nil {
		return int64(len(posts))
	}
	var n int64
	for _, oid := range posts {
		if slices.Contains(classes, oid.Class()) {
			n++
		}
	}
	return n
}

// NewTree returns an empty tree.
func NewTree() *Tree { return &Tree{root: &leaf{}} }

// Len returns the number of (key, oid) pairs in the tree.
func (t *Tree) Len() int { return t.size }

// Insert adds oid under key. Inserting a duplicate (key, oid) pair is a
// no-op.
func (t *Tree) Insert(key []byte, oid model.OID) {
	sep, right := t.root.insert(key, oid, keySummary(key, 1), t)
	if right != nil {
		root := &inner{keys: [][]byte{sep}, children: []node{t.root, right}}
		root.sums.addAll(*t.root.summary())
		root.sums.addAll(*right.summary())
		t.root = root
	}
}

func (l *leaf) insert(key []byte, oid model.OID, d Summary, t *Tree) ([]byte, node) {
	i := sort.Search(len(l.keys), func(i int) bool { return bytes.Compare(l.keys[i], key) >= 0 })
	if i < len(l.keys) && bytes.Equal(l.keys[i], key) {
		posts := l.posts[i]
		j := sort.Search(len(posts), func(j int) bool { return posts[j] >= oid })
		if j < len(posts) && posts[j] == oid {
			return nil, nil // duplicate pair
		}
		posts = append(posts, 0)
		copy(posts[j+1:], posts[j:])
		posts[j] = oid
		l.posts[i] = posts
		l.sums.add(oid.Class(), d)
		t.size++
		return nil, nil
	}
	l.keys = append(l.keys, nil)
	copy(l.keys[i+1:], l.keys[i:])
	l.keys[i] = append([]byte(nil), key...)
	l.posts = append(l.posts, nil)
	copy(l.posts[i+1:], l.posts[i:])
	l.posts[i] = []model.OID{oid}
	l.sums.add(oid.Class(), d)
	t.size++
	if len(l.keys) <= btreeOrder {
		return nil, nil
	}
	// Split.
	mid := len(l.keys) / 2
	right := &leaf{
		keys:  append([][]byte(nil), l.keys[mid:]...),
		posts: append([][]model.OID(nil), l.posts[mid:]...),
		next:  l.next,
	}
	for i, posts := range right.posts {
		// Postings are in OID order, so each class's postings are a run.
		for j := 0; j < len(posts); {
			k := j + 1
			for k < len(posts) && posts[k].Class() == posts[j].Class() {
				k++
			}
			right.sums.add(posts[j].Class(), keySummary(right.keys[i], int64(k-j)))
			j = k
		}
	}
	l.sums.subAll(right.sums)
	l.keys = l.keys[:mid:mid]
	l.posts = l.posts[:mid:mid]
	l.next = right
	mLeafSplits.Add(1)
	return right.keys[0], right
}

func (in *inner) insert(key []byte, oid model.OID, d Summary, t *Tree) ([]byte, node) {
	i := sort.Search(len(in.keys), func(i int) bool { return bytes.Compare(key, in.keys[i]) < 0 })
	size := t.size
	sep, right := in.children[i].insert(key, oid, d, t)
	if t.size != size {
		in.sums.add(oid.Class(), d)
	}
	if right == nil {
		return nil, nil
	}
	in.keys = append(in.keys, nil)
	copy(in.keys[i+1:], in.keys[i:])
	in.keys[i] = sep
	in.children = append(in.children, nil)
	copy(in.children[i+2:], in.children[i+1:])
	in.children[i+1] = right
	if len(in.children) <= btreeOrder {
		return nil, nil
	}
	mid := len(in.keys) / 2
	sepUp := in.keys[mid]
	r := &inner{
		keys:     append([][]byte(nil), in.keys[mid+1:]...),
		children: append([]node(nil), in.children[mid+1:]...),
	}
	for _, c := range r.children {
		r.sums.addAll(*c.summary())
	}
	in.sums.subAll(r.sums)
	in.keys = in.keys[:mid:mid]
	in.children = in.children[: mid+1 : mid+1]
	mInnerSplit.Add(1)
	return sepUp, r
}

// findLeaf descends to the leaf that would contain key, recording the
// probe depth (levels visited, leaf included). A non-nil path collects the
// inner nodes passed on the way.
func (t *Tree) findLeaf(key []byte, path []*inner) (*leaf, []*inner) {
	n := t.root
	depth := uint64(1)
	for {
		switch v := n.(type) {
		case *leaf:
			mProbeDepth.Observe(depth)
			mProbes.Add(1)
			return v, path
		case *inner:
			if path != nil {
				path = append(path, v)
			}
			i := sort.Search(len(v.keys), func(i int) bool { return bytes.Compare(key, v.keys[i]) < 0 })
			n = v.children[i]
			depth++
		}
	}
}

// Delete removes the (key, oid) pair, reporting whether it was present.
// Leaves are never merged (lazy deletion).
func (t *Tree) Delete(key []byte, oid model.OID) bool {
	var buf [8]*inner
	l, path := t.findLeaf(key, buf[:0])
	i := sort.Search(len(l.keys), func(i int) bool { return bytes.Compare(l.keys[i], key) >= 0 })
	if i >= len(l.keys) || !bytes.Equal(l.keys[i], key) {
		return false
	}
	posts := l.posts[i]
	j := sort.Search(len(posts), func(j int) bool { return posts[j] >= oid })
	if j >= len(posts) || posts[j] != oid {
		return false
	}
	posts = append(posts[:j], posts[j+1:]...)
	t.size--
	if len(posts) == 0 {
		l.keys = append(l.keys[:i], l.keys[i+1:]...)
		l.posts = append(l.posts[:i], l.posts[i+1:]...)
	} else {
		l.posts[i] = posts
	}
	d := keySummary(key, 1)
	l.sums.sub(oid.Class(), d)
	for _, in := range path {
		in.sums.sub(oid.Class(), d)
	}
	return true
}

// Search returns the postings list for key (nil if absent). The returned
// slice must not be modified.
func (t *Tree) Search(key []byte) []model.OID {
	l, _ := t.findLeaf(key, nil)
	i := sort.Search(len(l.keys), func(i int) bool { return bytes.Compare(l.keys[i], key) >= 0 })
	if i < len(l.keys) && bytes.Equal(l.keys[i], key) {
		return l.posts[i]
	}
	return nil
}

// Range calls fn for every (key, postings) pair, in key order, with
// lo < key (lo <= key when loInclusive) and key < hi (key <= hi when
// hiInclusive). A nil lo starts at the smallest key, a nil hi runs to the
// largest. fn returning false stops the scan. The key and postings slices
// are the tree's own: fn must not modify them, and may keep the key (its
// bytes are never rewritten) but not the postings.
func (t *Tree) Range(lo, hi []byte, loInclusive, hiInclusive bool, fn func(key []byte, posts []model.OID) bool) {
	b := bounds{lo, hi, loInclusive, hiInclusive}
	var l *leaf
	i := 0
	if lo == nil {
		l = t.leftmost()
	} else {
		l, _ = t.findLeaf(lo, nil)
		i = sort.Search(len(l.keys), func(i int) bool { return !b.below(l.keys[i]) })
	}
	for ; l != nil; l, i = l.next, 0 {
		for ; i < len(l.keys); i++ {
			if b.above(l.keys[i]) || !fn(l.keys[i], l.posts[i]) {
				return
			}
		}
	}
}

// bounds is a key range as Range takes it: a nil lo or hi leaves that side
// open.
type bounds struct {
	lo, hi       []byte
	loInc, hiInc bool
}

// below and above report whether k lies under the lower bound or over the
// upper one.
func (b bounds) below(k []byte) bool {
	if b.lo == nil {
		return false
	}
	c := bytes.Compare(k, b.lo)
	return c < 0 || (c == 0 && !b.loInc)
}

func (b bounds) above(k []byte) bool {
	if b.hi == nil {
		return false
	}
	c := bytes.Compare(k, b.hi)
	return c > 0 || (c == 0 && !b.hiInc)
}

// span returns the positions [i, j) of the leaf's keys inside b.
func (l *leaf) span(b bounds) (int, int) {
	i := sort.Search(len(l.keys), func(i int) bool { return !b.below(l.keys[i]) })
	j := sort.Search(len(l.keys), func(j int) bool { return b.above(l.keys[j]) })
	return i, max(i, j)
}

// Where a child's keys lie against bounds.
type placement int

const (
	inside placement = iota // some or all of them lie inside
	under
	over
)

// place tells where child i's keys, which lie in [keys[i-1], keys[i]),
// lie against b. For a child inside, it also returns the bounds a descent
// into the child must still check: b without the sides the child lies
// wholly within, so none once the whole child is inside.
func (in *inner) place(i int, b bounds) (placement, bounds) {
	switch {
	case i < len(in.keys) && b.lo != nil && bytes.Compare(in.keys[i], b.lo) <= 0:
		return under, b
	case i > 0 && b.above(in.keys[i-1]):
		return over, b
	}
	if i > 0 && !b.below(in.keys[i-1]) {
		b.lo = nil
	}
	if i < len(in.keys) && b.hi != nil && bytes.Compare(in.keys[i], b.hi) <= 0 {
		b.hi = nil
	}
	return inside, b
}

// Visits counts what Summarize read: the subtrees it counted whole from
// their node's summary, and the keys it visited one at a time in the leaves
// its bounds cut, with their postings of the classes.
type Visits struct {
	Subtrees, Keys, Postings int64
}

// Summarize returns the Summary of the postings of the given classes (nil:
// every class) under the keys of the range, whose bounds are Range's. A
// subtree inside the range counts from its node's summary, so only the keys
// of the leaves the bounds cut are visited: O(log n) nodes, each read in
// time linear in its fan-out. v counts what was read.
func (t *Tree) Summarize(lo, hi []byte, loInc, hiInc bool, classes []model.ClassID, v *Visits) Summary {
	var s Summary
	summarize(t.root, bounds{lo, hi, loInc, hiInc}, classes, &s, v)
	return s
}

func summarize(n node, b bounds, classes []model.ClassID, s *Summary, v *Visits) {
	if b.lo == nil && b.hi == nil {
		v.Subtrees++
		s.Add(n.summary().of(classes))
		return
	}
	switch n := n.(type) {
	case *leaf:
		i, j := n.span(b)
		for ; i < j; i++ {
			v.Keys++
			if c := countIn(n.posts[i], classes); c > 0 {
				v.Postings += c
				s.Add(keySummary(n.keys[i], c))
			}
		}
	case *inner:
		for i, child := range n.children {
			switch pos, cb := n.place(i, b); pos {
			case under:
			case over:
				return
			default:
				summarize(child, cb, classes, s, v)
			}
		}
	}
}

// Edge returns the smallest key of the range, whose bounds are Range's,
// that holds a posting of one of the classes (nil: any class) — the largest
// when last is set — or nil when none does. It descends only into subtrees
// whose summary counts such a posting. The key is the tree's own, and may
// be kept.
func (t *Tree) Edge(lo, hi []byte, loInc, hiInc bool, classes []model.ClassID, last bool) []byte {
	return edge(t.root, bounds{lo, hi, loInc, hiInc}, classes, last)
}

func edge(n node, b bounds, classes []model.ClassID, last bool) []byte {
	switch n := n.(type) {
	case *leaf:
		i, j := n.span(b)
		for k := range j - i {
			p := i + k
			if last {
				p = j - 1 - k
			}
			if countIn(n.posts[p], classes) > 0 {
				return n.keys[p]
			}
		}
	case *inner:
		for k, child := range n.children {
			i := k
			if last {
				i, child = len(n.children)-1-k, n.children[len(n.children)-1-k]
			}
			switch pos, cb := n.place(i, b); {
			case (pos == over && !last) || (pos == under && last):
				return nil
			case pos == over || pos == under || child.summary().of(classes).N == 0:
			default:
				if key := edge(child, cb, classes, last); key != nil {
					return key
				}
			}
		}
	}
	return nil
}

func (t *Tree) leftmost() *leaf {
	n := t.root
	for {
		switch v := n.(type) {
		case *leaf:
			return v
		case *inner:
			n = v.children[0]
		}
	}
}

// Height returns the tree height (for tests).
func (t *Tree) Height() int {
	h := 1
	n := t.root
	for {
		in, ok := n.(*inner)
		if !ok {
			return h
		}
		h++
		n = in.children[0]
	}
}
