package stats

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"oodb/internal/model"
)

// Registry is the engine-resident statistics store: one ClassStats per
// analyzed class, concurrency-safe, persisted as a system blob under the
// metadata's RootStats at every checkpoint and reloaded at open. Classes
// that were never analyzed simply have no entry — the planner falls back
// to its heuristic ranking for them.
type Registry struct {
	mu      sync.RWMutex
	classes map[model.ClassID]*ClassStats
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{classes: make(map[model.ClassID]*ClassStats)}
}

// Get returns the stats for a class, or nil if the class was never
// analyzed. The returned value is shared and must be treated read-only.
func (r *Registry) Get(class model.ClassID) *ClassStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.classes[class]
}

// Put installs (or replaces) the stats for a class.
func (r *Registry) Put(cs *ClassStats) {
	r.mu.Lock()
	r.classes[cs.Class] = cs
	r.mu.Unlock()
}

// Remove drops the stats for a class (DropClass calls it).
func (r *Registry) Remove(class model.ClassID) {
	r.mu.Lock()
	delete(r.classes, class)
	r.mu.Unlock()
}

// Classes returns the analyzed classes in ascending order.
func (r *Registry) Classes() []model.ClassID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]model.ClassID, 0, len(r.classes))
	for c := range r.classes {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the number of analyzed classes.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.classes)
}

// statsMagic heads the persisted registry blob.
var statsMagic = [4]byte{'K', 'S', 'T', '1'}

// Encode serializes the registry deterministically (classes and attributes
// in ascending id order; values in the model codec).
func (r *Registry) Encode() []byte {
	r.mu.RLock()
	defer r.mu.RUnlock()
	classes := make([]model.ClassID, 0, len(r.classes))
	for c := range r.classes {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	buf := append([]byte(nil), statsMagic[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(classes)))
	for _, c := range classes {
		cs := r.classes[c]
		buf = binary.AppendUvarint(buf, uint64(cs.Class))
		buf = binary.AppendUvarint(buf, cs.Cardinality)
		buf = binary.AppendUvarint(buf, cs.TotalBytes)
		attrs := cs.SortedAttrs()
		buf = binary.AppendUvarint(buf, uint64(len(attrs)))
		for _, a := range attrs {
			buf = binary.AppendUvarint(buf, uint64(a.Attr))
			buf = binary.AppendUvarint(buf, a.Count)
			buf = binary.AppendUvarint(buf, a.Distinct)
			buf = model.AppendValue(buf, a.Min)
			buf = model.AppendValue(buf, a.Max)
		}
	}
	return buf
}

// DecodeRegistry rebuilds a registry from its persisted blob. Every error
// wraps model.ErrCorrupt.
func DecodeRegistry(buf []byte) (*Registry, error) {
	r := NewRegistry()
	if len(buf) < len(statsMagic) || string(buf[:4]) != string(statsMagic[:]) {
		return nil, fmt.Errorf("stats: bad registry magic: %w", model.ErrCorrupt)
	}
	rd := model.NewReader(buf[4:], model.ErrCorrupt)
	nClasses := rd.Count()
	for i := uint64(0); i < nClasses && rd.Err() == nil; i++ {
		cs := &ClassStats{
			Class:       model.ClassID(rd.Uvarint()),
			Cardinality: rd.Uvarint(),
			TotalBytes:  rd.Uvarint(),
			Attrs:       make(map[model.AttrID]*AttrStats),
		}
		nAttrs := rd.Count()
		for j := uint64(0); j < nAttrs && rd.Err() == nil; j++ {
			a := &AttrStats{
				Attr:     model.AttrID(rd.Uvarint()),
				Count:    rd.Uvarint(),
				Distinct: rd.Uvarint(),
			}
			a.Min = rd.Value()
			a.Max = rd.Value()
			if rd.Err() == nil {
				cs.Attrs[a.Attr] = a
			}
		}
		if rd.Err() == nil {
			r.classes[cs.Class] = cs
		}
	}
	rd.End()
	if err := rd.Err(); err != nil {
		return nil, fmt.Errorf("stats: corrupt registry blob: %w", err)
	}
	return r, nil
}
