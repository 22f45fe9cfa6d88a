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
type Tree struct {
	root node
	size int // number of (key, oid) pairs
}

type node interface {
	// insert returns a new right sibling and its separator key if the node
	// split, else nil.
	insert(key []byte, oid model.OID, t *Tree) (sep []byte, right node)
}

type leaf struct {
	keys  [][]byte
	posts [][]model.OID
	next  *leaf
}

type inner struct {
	keys     [][]byte // len = len(children) - 1
	children []node
}

// NewTree returns an empty tree.
func NewTree() *Tree { return &Tree{root: &leaf{}} }

// Len returns the number of (key, oid) pairs in the tree.
func (t *Tree) Len() int { return t.size }

// Insert adds oid under key. Inserting a duplicate (key, oid) pair is a
// no-op.
func (t *Tree) Insert(key []byte, oid model.OID) {
	sep, right := t.root.insert(key, oid, t)
	if right != nil {
		t.root = &inner{keys: [][]byte{sep}, children: []node{t.root, right}}
	}
}

func (l *leaf) insert(key []byte, oid model.OID, t *Tree) ([]byte, node) {
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
		t.size++
		return nil, nil
	}
	l.keys = append(l.keys, nil)
	copy(l.keys[i+1:], l.keys[i:])
	l.keys[i] = append([]byte(nil), key...)
	l.posts = append(l.posts, nil)
	copy(l.posts[i+1:], l.posts[i:])
	l.posts[i] = []model.OID{oid}
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
	l.keys = l.keys[:mid:mid]
	l.posts = l.posts[:mid:mid]
	l.next = right
	mLeafSplits.Add(1)
	return right.keys[0], right
}

func (in *inner) insert(key []byte, oid model.OID, t *Tree) ([]byte, node) {
	i := sort.Search(len(in.keys), func(i int) bool { return bytes.Compare(key, in.keys[i]) < 0 })
	sep, right := in.children[i].insert(key, oid, t)
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
	in.keys = in.keys[:mid:mid]
	in.children = in.children[: mid+1 : mid+1]
	mInnerSplit.Add(1)
	return sepUp, r
}

// findLeaf descends to the leaf that would contain key, recording the
// probe depth (levels visited, leaf included).
func (t *Tree) findLeaf(key []byte) *leaf {
	n := t.root
	depth := uint64(1)
	for {
		switch v := n.(type) {
		case *leaf:
			mProbeDepth.Observe(depth)
			mProbes.Add(1)
			return v
		case *inner:
			i := sort.Search(len(v.keys), func(i int) bool { return bytes.Compare(key, v.keys[i]) < 0 })
			n = v.children[i]
			depth++
		}
	}
}

// Delete removes the (key, oid) pair, reporting whether it was present.
// Leaves are never merged (lazy deletion).
func (t *Tree) Delete(key []byte, oid model.OID) bool {
	l := t.findLeaf(key)
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
	return true
}

// Search returns the postings list for key (nil if absent). The returned
// slice must not be modified.
func (t *Tree) Search(key []byte) []model.OID {
	l := t.findLeaf(key)
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
	var l *leaf
	var i int
	if lo == nil {
		l = t.leftmost()
		i = 0
	} else {
		l = t.findLeaf(lo)
		i = sort.Search(len(l.keys), func(i int) bool {
			c := bytes.Compare(l.keys[i], lo)
			return c > 0 || (c == 0 && loInclusive)
		})
	}
	for l != nil {
		for ; i < len(l.keys); i++ {
			if hi != nil {
				c := bytes.Compare(l.keys[i], hi)
				if c > 0 || (c == 0 && !hiInclusive) {
					return
				}
			}
			if !fn(l.keys[i], l.posts[i]) {
				return
			}
		}
		l = l.next
		i = 0
	}
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
