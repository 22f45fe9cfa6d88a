package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"oodb/internal/model"
	"oodb/internal/schema"
)

// Fetcher supplies object state to path-key computation. Postings track
// the uncommitted present, so the engine passes in its raw read.
type Fetcher func(oid model.OID) (*model.Object, error)

// Def describes one index.
//
// A simple index (len(Path) == 1) indexes attribute Path[0] of Class. With
// Hierarchy set it is a class-hierarchy index: one structure covering Class
// and every descendant (the CH-index of [KIM89b]); otherwise it is a
// single-class (SC) index.
//
// A nested-attribute index (len(Path) > 1) maps the value reachable from a
// Class instance through the attribute path to that instance's OID
// ([BERT89]): an index on Vehicle.manufacturer.location lets the engine
// answer `WHERE manufacturer.location = "Detroit"` without traversing.
type Def struct {
	ID        uint32
	Name      string
	Class     model.ClassID
	Path      []model.AttrID
	Hierarchy bool
}

// ErrIndexExists and friends are the manager's sentinel errors.
var (
	ErrIndexExists = errors.New("index: index already exists")
	ErrNoSuchIndex = errors.New("index: no such index")
	ErrEmptyPath   = errors.New("index: empty attribute path")
)

// Index is a live index: definition plus tree plus, for nested indexes,
// the reverse-reference maps that drive maintenance.
type Index struct {
	Def
	tree *Tree
	// mu is the owning manager's lock: maintenance mutates the tree under
	// its write side, Scan copies postings out under its read side.
	mu *sync.RWMutex

	// For nested indexes: rev[i] maps the OID of the object at path
	// position i (1-based: the object reached after traversing Path[:i])
	// to the set of head instances whose path instantiation passes through
	// it. When that object's Path[i] attribute changes, every head in
	// rev[i][oid] is re-keyed.
	rev []map[model.OID]map[model.OID]struct{}
	// headChain remembers, per head of a nested index, the interior OIDs
	// its entries in rev sit under (chain[i] for rev[i]), so unindexing a
	// head deletes exactly those entries instead of walking all of rev.
	headChain map[model.OID][][]model.OID

	// headKeys remembers the key(s) currently indexed for each head
	// instance so updates and deletes can unindex exactly what was indexed.
	// Every indexed head has an entry: a head with no key (a null value)
	// has a nil one.
	headKeys map[model.OID][][]byte
	// unkeyed counts, per class, the heads with no key. Kept for one-step
	// indexes only: there a head has no key exactly when its attribute is
	// null, which an aggregate folded from the keys must still see.
	unkeyed map[model.ClassID]int
	// published is set, under mu, once the index holds every covered
	// object (Publish).
	published bool
}

// Manager owns all indexes of a database and keeps them consistent with
// object and schema changes.
type Manager struct {
	mu     sync.RWMutex
	cat    *schema.Catalog
	fetch  Fetcher
	byID   map[uint32]*Index
	byName map[string]*Index
	nextID uint32
	// version counts the indexes created and dropped, under mu (Version).
	version atomic.Uint64
}

// NewManager creates an index manager over the catalog. The fetcher is
// used to walk paths during nested-index maintenance.
func NewManager(cat *schema.Catalog, fetch Fetcher) *Manager {
	return &Manager{
		cat:    cat,
		fetch:  fetch,
		byID:   make(map[uint32]*Index),
		byName: make(map[string]*Index),
		nextID: 1,
	}
}

// Create defines a new index. Writes maintain it from here on, but All
// leaves it out until Publish: the caller populates it (the engine scans the
// covered classes and feeds each object to Populate), then publishes it, so
// no query reads a half-built index.
func (m *Manager) Create(name string, class model.ClassID, path []model.AttrID, hierarchy bool) (*Index, error) {
	if len(path) == 0 {
		return nil, ErrEmptyPath
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.byName[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrIndexExists, name)
	}
	idx := &Index{
		Def: Def{
			ID:        m.nextID,
			Name:      name,
			Class:     class,
			Path:      append([]model.AttrID(nil), path...),
			Hierarchy: hierarchy,
		},
		tree:     NewTree(),
		mu:       &m.mu,
		headKeys: make(map[model.OID][][]byte),
	}
	if len(path) > 1 {
		idx.rev = make([]map[model.OID]map[model.OID]struct{}, len(path))
		for i := 1; i < len(path); i++ {
			idx.rev[i] = make(map[model.OID]map[model.OID]struct{})
		}
		idx.headChain = make(map[model.OID][][]model.OID)
	} else {
		idx.unkeyed = make(map[model.ClassID]int)
	}
	m.nextID++
	m.version.Add(1)
	m.byID[idx.ID] = idx
	m.byName[name] = idx
	return idx, nil
}

// Drop removes an index.
func (m *Manager) Drop(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	idx, ok := m.byName[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchIndex, name)
	}
	delete(m.byName, name)
	delete(m.byID, idx.ID)
	m.version.Add(1)
	return nil
}

// Publish makes a populated index one of All's, or with published false
// takes it out again while a schema change repopulates it.
func (m *Manager) Publish(idx *Index, published bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	idx.published = published
}

// Version moves on every index create and drop, and on nothing else.
func (m *Manager) Version() uint64 { return m.version.Load() }

// Get returns the named index.
func (m *Manager) Get(name string) (*Index, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	idx, ok := m.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchIndex, name)
	}
	return idx, nil
}

// All returns every published index (ascending id).
func (m *Manager) All() []*Index {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]*Index, 0, len(m.byID))
	for id := uint32(1); id < m.nextID; id++ {
		if idx, ok := m.byID[id]; ok && idx.published {
			out = append(out, idx)
		}
	}
	return out
}

// covers reports whether the index covers instances of class — exact match
// for SC indexes, hierarchy membership for CH indexes.
func (m *Manager) covers(idx *Index, class model.ClassID) bool {
	if idx.Hierarchy {
		return m.cat.IsSubclassOf(class, idx.Class)
	}
	return class == idx.Class
}

// Populate feeds one object into one index (bulk build after Create). It
// is idempotent per head object.
func (m *Manager) Populate(idx *Index, obj *model.Object) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.covers(idx, obj.Class()) {
		return nil
	}
	return m.reindexHead(idx, obj.OID, obj)
}

// OnPut maintains every index after an object write. old is the prior
// state (nil on insert), next the new state.
func (m *Manager) OnPut(old, next *model.Object) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, idx := range m.byID {
		if err := m.maintain(idx, old, next); err != nil {
			return err
		}
	}
	return nil
}

// OnDelete maintains every index after an object delete.
func (m *Manager) OnDelete(old *model.Object) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, idx := range m.byID {
		if err := m.maintain(idx, old, nil); err != nil {
			return err
		}
	}
	return nil
}

// maintain updates one index for an object transition old -> next (either
// may be nil). Caller holds m.mu.
func (m *Manager) maintain(idx *Index, old, next *model.Object) error {
	var obj *model.Object
	if next != nil {
		obj = next
	} else {
		obj = old
	}
	if obj == nil {
		return nil
	}
	class := obj.Class()
	if m.covers(idx, class) {
		// Head-object transition.
		if err := m.reindexHead(idx, obj.OID, next); err != nil {
			return err
		}
	}
	// Interior-object transition for nested indexes: if obj participates
	// in any path instantiation at position i, and its Path[i] value
	// changed (or it was deleted), re-key the affected heads.
	if len(idx.Path) > 1 {
		for i := 1; i < len(idx.Path); i++ {
			heads, involved := idx.rev[i][obj.OID]
			if !involved {
				continue
			}
			attr := idx.Path[i]
			if old != nil && next != nil && model.Equal(old.Get(attr), next.Get(attr)) {
				continue
			}
			// Snapshot: reindexHead mutates the rev sets while we walk.
			snapshot := make([]model.OID, 0, len(heads))
			for head := range heads {
				snapshot = append(snapshot, head)
			}
			for _, head := range snapshot {
				ho, err := m.fetch(head)
				if err != nil {
					// Head vanished: unindex it.
					m.unindexHead(idx, head)
					continue
				}
				if err := m.reindexHead(idx, head, ho); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// reindexHead recomputes and replaces the index entries of one head
// instance. next == nil unindexes it. Caller holds m.mu.
func (m *Manager) reindexHead(idx *Index, head model.OID, next *model.Object) error {
	m.unindexHead(idx, head)
	if next == nil {
		return nil
	}
	keys, chain, err := m.pathKeys(idx, next)
	if err != nil {
		return err
	}
	for _, k := range keys {
		idx.tree.Insert(k, head)
	}
	idx.headKeys[head] = keys
	if idx.unkeyed != nil && len(keys) == 0 {
		idx.unkeyed[head.Class()]++
	}
	interior := false
	for i := 1; i < len(chain); i++ {
		for _, oid := range chain[i] {
			set := idx.rev[i][oid]
			if set == nil {
				set = make(map[model.OID]struct{})
				idx.rev[i][oid] = set
			}
			set[head] = struct{}{}
			interior = true
		}
	}
	if interior {
		idx.headChain[head] = chain
	}
	return nil
}

// unindexHead removes all current entries of a head instance. Caller holds
// m.mu.
func (m *Manager) unindexHead(idx *Index, head model.OID) {
	keys, indexed := idx.headKeys[head]
	if !indexed {
		return
	}
	for _, k := range keys {
		idx.tree.Delete(k, head)
	}
	delete(idx.headKeys, head)
	if idx.unkeyed != nil && len(keys) == 0 {
		if idx.unkeyed[head.Class()]--; idx.unkeyed[head.Class()] == 0 {
			delete(idx.unkeyed, head.Class())
		}
	}
	for i, oids := range idx.headChain[head] {
		for _, oid := range oids {
			if set := idx.rev[i][oid]; set != nil {
				delete(set, head)
				if len(set) == 0 {
					delete(idx.rev[i], oid)
				}
			}
		}
	}
	delete(idx.headChain, head)
}

// pathKeys walks the index path from the head object and returns the
// terminal key encodings plus, per path position i >= 1, the OIDs of the
// interior objects whose Path[i] attribute is read along some
// instantiation, or would be if the object could be read. Set-valued
// terminal attributes produce one key per member; a null anywhere along a
// branch ends that branch. Multi-valued interior steps index every branch.
func (m *Manager) pathKeys(idx *Index, head *model.Object) (keys [][]byte, chain [][]model.OID, err error) {
	chain = make([][]model.OID, len(idx.Path))
	objs := []*model.Object{head}
	for step := 0; step < len(idx.Path); step++ {
		attr := idx.Path[step]
		last := step == len(idx.Path)-1
		var nextObjs []*model.Object
		for _, o := range objs {
			v := o.Get(attr)
			if v.IsNull() {
				continue
			}
			if last {
				if members, isSet := v.AsSet(); isSet {
					for _, mem := range members {
						keys = append(keys, model.Key(mem))
					}
				} else {
					keys = append(keys, model.Key(v))
				}
				continue
			}
			// Interior step: follow reference(s).
			follow := func(ref model.Value) error {
				oid, ok := ref.AsRef()
				if !ok {
					return nil // non-reference interior value: path dead-ends
				}
				// A dangling reference dead-ends the path, but its OID joins
				// the chain: should the object appear (an aborted delete puts
				// it back), its reverse entry re-keys the head.
				chain[step+1] = append(chain[step+1], oid)
				obj, ferr := m.fetch(oid)
				if ferr != nil {
					return nil
				}
				nextObjs = append(nextObjs, obj)
				return nil
			}
			if members, isSet := v.AsSet(); isSet {
				for _, mem := range members {
					if err := follow(mem); err != nil {
						return nil, nil, err
					}
				}
			} else if err := follow(v); err != nil {
				return nil, nil, err
			}
		}
		if last {
			break
		}
		objs = nextObjs
		if len(objs) == 0 {
			break
		}
	}
	return keys, chain, nil
}

// Definition persistence: the engine stores EncodeDefs output in the index
// table blob and recreates+repopulates indexes at open.

// EncodeDefs serializes the definitions of every index.
func EncodeDefs(m *Manager) []byte {
	m.mu.RLock()
	defer m.mu.RUnlock()
	buf := binary.AppendUvarint(nil, uint64(len(m.byID)))
	for id := uint32(1); id < m.nextID; id++ {
		idx, ok := m.byID[id]
		if !ok {
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(idx.ID))
		buf = binary.AppendUvarint(buf, uint64(len(idx.Name)))
		buf = append(buf, idx.Name...)
		buf = binary.AppendUvarint(buf, uint64(idx.Class))
		if idx.Hierarchy {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.AppendUvarint(buf, uint64(len(idx.Path)))
		for _, a := range idx.Path {
			buf = binary.AppendUvarint(buf, uint64(a))
		}
	}
	return buf
}

// DecodeDefs returns the index definitions stored in buf. Every error is
// model.ErrCorrupt.
func DecodeDefs(buf []byte) ([]Def, error) {
	r := model.NewReader(buf, model.ErrCorrupt)
	n := r.Count()
	defs := make([]Def, 0, n)
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		d := Def{ID: uint32(r.Uvarint()), Name: r.ReadString(), Class: model.ClassID(r.Uvarint()), Hierarchy: r.Byte() == 1}
		np := r.Count()
		for j := uint64(0); j < np; j++ {
			d.Path = append(d.Path, model.AttrID(r.Uvarint()))
		}
		defs = append(defs, d)
	}
	r.End()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return defs, nil
}
