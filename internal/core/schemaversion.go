package core

import (
	"errors"
	"fmt"
	"sort"

	"oodb/internal/model"
	"oodb/internal/schema"
)

// Schema versioning (Kim & Chou, "Versions of Schema for Object-Oriented
// Databases", VLDB 1988 — [KIM88a], which §5.4 offers views as one light
// form of). A schema snapshot captures the entire catalog as of a moment,
// durably, so applications can later inspect old schemas, diff them
// against the present, and reason about which shape their stored data was
// written under. Snapshots are ordinary objects (the catalog image is a
// Bytes attribute, spilling to overflow pages when large), so they ride
// the same transaction, recovery and checkpoint machinery as user data.

const schemaVersionClassName = "SchemaVersion"

// SchemaVersion describes one stored snapshot.
type SchemaVersion struct {
	Label   string
	Version uint64 // catalog version at snapshot time
	OID     model.OID
}

// ErrNoSuchSnapshot reports an unknown snapshot label.
var ErrNoSuchSnapshot = errors.New("core: no such schema snapshot")

// SnapshotSchema stores a durable snapshot of the current catalog under a
// label. Labels are unique; re-snapshotting a label fails. Callers queue
// on snapMu, so the first defines the snapshot class before any other
// looks it up, and each checks its label against the ones committed.
func (db *DB) SnapshotSchema(label string) (uint64, error) {
	db.snapMu.Lock()
	defer db.snapMu.Unlock()
	cl, err := db.SystemClass(schemaVersionClassName,
		schema.AttrSpec{Name: "label", Domain: schema.ClassString},
		schema.AttrSpec{Name: "version", Domain: schema.ClassInteger},
		schema.AttrSpec{Name: "image", Domain: schema.ClassBytes},
	)
	if err != nil {
		return 0, err
	}
	switch _, err := db.findSnapshot(label); {
	case err == nil:
		return 0, fmt.Errorf("core: schema snapshot %q already exists", label)
	case !errors.Is(err, ErrNoSuchSnapshot):
		return 0, err
	}
	version := db.Catalog.Version()
	image := schema.EncodeCatalog(db.Catalog)
	err = db.Do(func(tx *Tx) error {
		_, err := tx.InsertClass(cl.ID, map[string]model.Value{
			"label":   model.String(label),
			"version": model.Int(int64(version)),
			"image":   model.Bytes(image),
		})
		return err
	})
	if err != nil {
		return 0, err
	}
	return version, nil
}

// findSnapshot returns the OID of the snapshot stored under label.
func (db *DB) findSnapshot(label string) (model.OID, error) {
	versions, err := db.SchemaVersions()
	if err != nil {
		return model.NilOID, err
	}
	for _, v := range versions {
		if v.Label == label {
			return v.OID, nil
		}
	}
	return model.NilOID, fmt.Errorf("%w: %q", ErrNoSuchSnapshot, label)
}

// SchemaVersions lists stored snapshots in label order.
func (db *DB) SchemaVersions() ([]SchemaVersion, error) {
	cl, err := db.Catalog.ClassByName(schemaVersionClassName)
	if errors.Is(err, schema.ErrNoSuchClass) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []SchemaVersion
	err = db.Scan([]model.ClassID{cl.ID}, func(obj *model.Object) bool {
		lv, _ := db.AttrValue(obj, "label")
		vv, _ := db.AttrValue(obj, "version")
		label, _ := lv.AsString()
		v, _ := vv.AsInt()
		out = append(out, SchemaVersion{Label: label, Version: uint64(v), OID: obj.OID})
		return true
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out, nil
}

// CatalogAt decodes the catalog as of the labeled snapshot. The returned
// catalog is a standalone read-only copy: method implementations are nil
// and changes to it do not affect the live schema.
func (db *DB) CatalogAt(label string) (*schema.Catalog, error) {
	oid, err := db.findSnapshot(label)
	if err != nil {
		return nil, err
	}
	obj, err := db.Fetch(oid)
	if err != nil {
		return nil, err
	}
	iv, _ := db.AttrValue(obj, "image")
	image, ok := iv.AsBytes()
	if !ok {
		return nil, fmt.Errorf("core: schema snapshot %q has no image", label)
	}
	return schema.DecodeCatalog(image)
}

// DiffSchema compares the labeled snapshot against the live catalog and
// returns human-readable change lines: classes added/dropped and, per
// surviving class, attributes added/dropped (by effective definition).
func (db *DB) DiffSchema(label string) ([]string, error) {
	old, err := db.CatalogAt(label)
	if err != nil {
		return nil, err
	}
	var out []string
	oldByName := map[string]model.ClassID{}
	for _, cl := range old.Classes() {
		if !schema.IsPrimitive(cl.ID) {
			oldByName[cl.Name] = cl.ID
		}
	}
	newByName := map[string]model.ClassID{}
	for _, cl := range db.Catalog.Classes() {
		if !schema.IsPrimitive(cl.ID) {
			newByName[cl.Name] = cl.ID
		}
	}
	var names []string
	for n := range oldByName {
		names = append(names, n)
	}
	for n := range newByName {
		if _, ok := oldByName[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		oldID, inOld := oldByName[name]
		newID, inNew := newByName[name]
		switch {
		case !inOld:
			out = append(out, fmt.Sprintf("+ class %s", name))
		case !inNew:
			out = append(out, fmt.Sprintf("- class %s", name))
		default:
			oldAttrs := map[string]bool{}
			attrs, _ := old.EffectiveAttrs(oldID)
			for _, a := range attrs {
				oldAttrs[a.Name] = true
			}
			newAttrs := map[string]bool{}
			attrs, _ = db.Catalog.EffectiveAttrs(newID)
			for _, a := range attrs {
				newAttrs[a.Name] = true
			}
			var attrNames []string
			for a := range oldAttrs {
				attrNames = append(attrNames, a)
			}
			for a := range newAttrs {
				if !oldAttrs[a] {
					attrNames = append(attrNames, a)
				}
			}
			sort.Strings(attrNames)
			for _, a := range attrNames {
				switch {
				case !oldAttrs[a]:
					out = append(out, fmt.Sprintf("+ attr %s.%s", name, a))
				case !newAttrs[a]:
					out = append(out, fmt.Sprintf("- attr %s.%s", name, a))
				}
			}
		}
	}
	return out, nil
}
