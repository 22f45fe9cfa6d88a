package core

import (
	"cmp"
	"errors"

	"oodb/internal/model"
	"oodb/internal/schema"
)

// DDL operations. Schema evolution is auto-committed: each operation takes
// exclusive class locks (under a dedicated transaction id), mutates the
// catalog, maintains affected instances and indexes, and checkpoints so
// catalog and data are durably consistent — the engine's invariant that WAL
// replay never needs to reconstruct DDL.

// ddl runs fn with exclusive locks on the given classes, then checkpoints.
//
// fn may return then, the part of the operation that has to wait until
// what fn did is durable: the frees of a segment fn detached (DropClass,
// CompactClass). ddl runs it after the checkpoint and then checkpoints
// again, which truncates the page images the frees logged
// (WAL-before-data) — nothing needs them once the frees are on disk.
// Freeing before the first checkpoint would destroy committed pages the
// durable metadata still names; a crash between the checkpoint and the
// frees merely leaks them (Store.AccountPages counts the leak,
// ReclaimLeaked recovers it). All of it runs under ddlMu, which the
// reclaimer also takes, so it never finds a detached chain unreachable and
// frees it ahead of then.
func (db *DB) ddl(classes []model.ClassID, fn func() (then func() error, err error)) error {
	if db.closed.Load() {
		return ErrClosed
	}
	db.ddlMu.Lock()
	defer db.ddlMu.Unlock()
	id := db.nextTxn.Add(1)
	defer db.Locks.ReleaseAll(id)
	for _, c := range classes {
		if err := db.Locks.LockClassWrite(id, c); err != nil {
			return err
		}
	}
	then, err := fn()
	if err != nil {
		return err
	}
	if err := db.Checkpoint(); err != nil || then == nil {
		return err
	}
	if db.beforeFree != nil {
		db.beforeFree()
	}
	if err := then(); err != nil {
		return err
	}
	return db.Checkpoint()
}

// DefineClass creates a class (see schema.Catalog.DefineClass) and its
// storage segment.
func (db *DB) DefineClass(name string, supers []model.ClassID, attrs ...schema.AttrSpec) (*schema.Class, error) {
	var cl *schema.Class
	err := db.ddl(nil, func() (func() error, error) {
		var err error
		cl, err = db.Catalog.DefineClass(name, supers, attrs...)
		if err != nil {
			return nil, err
		}
		return nil, db.Store.CreateSegment(cl.ID)
	})
	return cl, err
}

// SystemClass returns the class named name, defining it with attrs first
// if it does not exist: the bootstrap of the classes the feature layers
// (versions, checkout, views, schema snapshots) keep their state in.
func (db *DB) SystemClass(name string, attrs ...schema.AttrSpec) (*schema.Class, error) {
	cl, err := db.Catalog.ClassByName(name)
	if errors.Is(err, schema.ErrNoSuchClass) {
		return db.DefineClass(name, nil, attrs...)
	}
	return cl, err
}

// DropClass deletes every instance of the class, removes indexes rooted at
// it, and drops it from the catalog (subclasses re-link per Banerjee). The
// segment is detached here and freed once the removal is durable (ddl).
func (db *DB) DropClass(class model.ClassID) error {
	return db.ddl([]model.ClassID{class}, func() (func() error, error) {
		// Unindex the class's instances everywhere, then detach the
		// segment. The whole class is read first: a damaged record fails
		// the drop before any index has changed.
		var objs []*model.Object
		err := db.scanRaw([]model.ClassID{class}, func(obj *model.Object) bool {
			objs = append(objs, obj)
			return true
		})
		if err != nil {
			return nil, err
		}
		for _, obj := range objs {
			_ = db.Indexes.OnDelete(obj)
		}
		detached := db.Store.DetachSegment(class)
		// Indexes rooted at the dropped class are dropped with it.
		for _, idx := range db.Indexes.All() {
			if idx.Class == class {
				_ = db.Indexes.Drop(idx.Name)
			}
		}
		db.Stats.Remove(class)
		_, err = db.Catalog.DropClass(class)
		return func() error { return db.Store.FreeDetached(detached) }, err
	})
}

// AddAttribute adds an attribute to a class. Existing instances are
// untouched: they read the attribute's default until first written (lazy
// evolution; see AttrValue).
func (db *DB) AddAttribute(class model.ClassID, spec schema.AttrSpec) (*schema.Attribute, error) {
	var attr *schema.Attribute
	err := db.ddl([]model.ClassID{class}, func() (func() error, error) {
		var err error
		attr, _, err = db.Catalog.AddAttribute(class, spec)
		return nil, err
	})
	return attr, err
}

// DropAttribute removes a locally defined attribute. Indexes whose path
// uses the attribute are dropped, and stored values become inert (attribute
// ids are never reused).
func (db *DB) DropAttribute(class model.ClassID, name string) error {
	a, err := db.Catalog.ResolveAttr(class, name)
	if err != nil {
		return err
	}
	return db.ddl([]model.ClassID{class}, func() (func() error, error) {
		if _, err := db.Catalog.DropAttribute(class, name); err != nil {
			return nil, err
		}
		for _, idx := range db.Indexes.All() {
			for _, step := range idx.Path {
				if step == a.ID {
					_ = db.Indexes.Drop(idx.Name)
					break
				}
			}
		}
		return nil, nil
	})
}

// RenameAttribute renames a locally defined attribute.
func (db *DB) RenameAttribute(class model.ClassID, oldName, newName string) error {
	return db.ddl([]model.ClassID{class}, func() (func() error, error) {
		_, err := db.Catalog.RenameAttribute(class, oldName, newName)
		return nil, err
	})
}

// DeclareComposite marks class's own reference attribute name a composite
// link (schema.Catalog.DeclareComposite). It holds X on the class and on
// every descendant, which inherit the flag, so a write of theirs either
// commits before the declaration or is checked under it.
func (db *DB) DeclareComposite(class model.ClassID, name string, exclusive bool) error {
	classes, err := db.Catalog.Descendants(class)
	if err != nil {
		return err
	}
	return db.ddl(classes, func() (func() error, error) {
		return nil, db.Catalog.DeclareComposite(class, name, exclusive)
	})
}

// AddSuperclass adds an inheritance edge. Hierarchy indexes rooted at or
// above super gain coverage of the class's instances, so they are
// repopulated, and answer no statement until they are: a snapshot takes
// no class lock.
func (db *DB) AddSuperclass(class, super model.ClassID) error {
	return db.ddl([]model.ClassID{class, super}, func() (func() error, error) {
		for _, idx := range db.Indexes.All() {
			if idx.Hierarchy && db.Catalog.IsSubclassOf(super, idx.Class) {
				db.Indexes.Publish(idx, false)
				defer db.Indexes.Publish(idx, true)
			}
		}
		if _, err := db.Catalog.AddSuperclass(class, super); err != nil {
			return nil, err
		}
		return nil, db.repopulateClass(class)
	})
}

// DropSuperclass removes an inheritance edge; hierarchy indexes that no
// longer cover the class shed its instances.
func (db *DB) DropSuperclass(class, super model.ClassID) error {
	return db.ddl([]model.ClassID{class, super}, func() (func() error, error) {
		if _, err := db.Catalog.DropSuperclass(class, super); err != nil {
			return nil, err
		}
		return nil, db.reindexAfterUncover(class)
	})
}

// AddMethod defines a method with its implementation.
func (db *DB) AddMethod(class model.ClassID, name string, impl schema.MethodImpl) error {
	return db.ddl([]model.ClassID{class}, func() (func() error, error) {
		_, err := db.Catalog.AddMethod(class, name, impl)
		return nil, err
	})
}

// RegisterMethod re-attaches an implementation to a persisted method
// signature (no catalog change, no checkpoint).
func (db *DB) RegisterMethod(class model.ClassID, name string, impl schema.MethodImpl) error {
	return db.Catalog.RegisterMethod(class, name, impl)
}

// CreateIndex defines and populates an index. path names attributes bound
// on class (Catalog.BindPath: each interior domain must be a general
// class); hierarchy selects a class-hierarchy index.
func (db *DB) CreateIndex(name string, class model.ClassID, path []string, hierarchy bool) error {
	b, err := db.Catalog.BindPath([]model.ClassID{class}, path, nil)
	if err != nil {
		return err
	}
	return db.ddl([]model.ClassID{class}, func() (func() error, error) {
		return nil, db.buildIndex(name, class, b.Classes[0].Attrs, hierarchy)
	})
}

// DropIndex removes an index.
func (db *DB) DropIndex(name string) error {
	return db.ddl(nil, func() (func() error, error) {
		return nil, db.Indexes.Drop(name)
	})
}

// SchemaEpoch moves on every catalog change and on every index create or
// drop, and on nothing else — not on compaction, statistics or a
// checkpoint. A query plan records it before it reads the catalog and the
// indexes, and is still what it was made as while the epoch holds.
func (db *DB) SchemaEpoch() uint64 { return db.Catalog.Version() + db.Indexes.Version() }

// buildIndex creates the index, populates it from the covered classes and
// publishes it: no query may probe a half-built one, and one that cannot be
// populated is dropped again.
func (db *DB) buildIndex(name string, class model.ClassID, path []model.AttrID, hierarchy bool) error {
	classes := []model.ClassID{class}
	var err error
	if hierarchy {
		if classes, err = db.Catalog.Descendants(class); err != nil {
			return err
		}
	}
	idx, err := db.Indexes.Create(name, class, path, hierarchy)
	if err != nil {
		return err
	}
	var perr error
	err = db.scanRaw(classes, func(obj *model.Object) bool {
		perr = db.Indexes.Populate(idx, obj)
		return perr == nil
	})
	if err = cmp.Or(err, perr); err != nil {
		_ = db.Indexes.Drop(name)
		return err
	}
	db.Indexes.Publish(idx, true)
	return nil
}

// repopulateClass re-feeds every instance of class (and its descendants)
// through index maintenance — used when inheritance edges change coverage.
func (db *DB) repopulateClass(class model.ClassID) error {
	classes, err := db.Catalog.Descendants(class)
	if err != nil {
		return err
	}
	var ierr error
	err = db.scanRaw(classes, func(obj *model.Object) bool {
		ierr = db.Indexes.OnPut(obj, obj)
		return ierr == nil
	})
	return cmp.Or(err, ierr)
}

// reindexAfterUncover rebuilds every hierarchy index from scratch — the
// blunt-but-correct response to a class leaving a hierarchy (its instances
// may need to leave several indexes at once).
func (db *DB) reindexAfterUncover(class model.ClassID) error {
	for _, idx := range db.Indexes.All() {
		name, root, path, hier := idx.Name, idx.Class, idx.Path, idx.Hierarchy
		if !hier {
			continue
		}
		if err := db.Indexes.Drop(name); err != nil {
			return err
		}
		if err := db.buildIndex(name, root, path, hier); err != nil {
			return err
		}
	}
	return nil
}
