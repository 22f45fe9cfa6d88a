// Package oodb is kimdb: an object-oriented database system in Go,
// reproducing the architecture of Won Kim, "Research Directions in
// Object-Oriented Database Systems" (PODS 1990).
//
// The package is the public facade over the engine: it provides the core
// object-oriented data model (classes, a dynamically extensible class
// hierarchy with multiple inheritance, object identity, encapsulated
// behavior with late-bound message passing), conventional database
// facilities re-architected for that model (ACID transactions with
// hierarchical locking, write-ahead logging and crash recovery,
// class-hierarchy and nested-attribute indexes, a declarative query
// language with automatic access-path selection), and the paper's extended
// feature set (memory-resident workspaces with pointer swizzling, versions,
// composite objects, checkout/checkin long transactions, role-based
// implicit authorization, views, deductive rules, and federation of
// heterogeneous databases under the OO common model).
//
// Quick start:
//
//	db, err := oodb.Open(dir, oodb.Options{})
//	cls, err := db.DefineClass("Vehicle", nil,
//	    oodb.Attr{Name: "weight", Domain: "Integer"},
//	)
//	err = db.Do(func(tx *oodb.Tx) error {
//	    _, err := tx.Insert("Vehicle", oodb.Attrs{"weight": oodb.Int(7600)})
//	    return err
//	})
//	res, err := db.Query(`SELECT * FROM Vehicle WHERE weight > 7500`)
package oodb

import (
	"fmt"
	"sync"

	"oodb/internal/authz"
	"oodb/internal/checkout"
	"oodb/internal/composite"
	"oodb/internal/core"
	"oodb/internal/federation"
	"oodb/internal/maint"
	"oodb/internal/model"
	"oodb/internal/obs"
	"oodb/internal/query"
	"oodb/internal/rules"
	"oodb/internal/schema"
	"oodb/internal/version"
	"oodb/internal/views"
	"oodb/internal/workspace"
)

// Re-exported value-model types and constructors. Values are immutable
// tagged unions; see the methods on Value for accessors.
type (
	// Value is one attribute value: a primitive object, a reference, or a
	// set of values.
	Value = model.Value
	// OID is a unique object identifier (24-bit class, 40-bit sequence).
	OID = model.OID
	// ClassID identifies a class in the catalog.
	ClassID = model.ClassID
	// Tx is an ACID transaction (strict two-phase locked, WAL-logged).
	Tx = core.Tx
	// Object is the raw stored state of an instance.
	Object = model.Object
	// Result is a query result set.
	Result = query.Result
	// Row is one query result row. Its Object is nil for a row answered
	// from an index alone (a covered statement, such as `SELECT val FROM X
	// WHERE val > 1 ORDER BY val` over an index on val): read the object
	// with Fetch(row.OID).
	Row = query.Row
	// Class is a catalog entry.
	Class = schema.Class
	// MethodImpl is the executable body of a method; method bodies are
	// process-local and re-registered after Open (signatures persist).
	MethodImpl = schema.MethodImpl
	// MethodEngine is the engine surface a method body may use.
	MethodEngine = schema.MethodEngine
	// Workspace is a memory-resident object cache with pointer swizzling.
	Workspace = workspace.Workspace
	// Descriptor is a workspace-resident object.
	Descriptor = workspace.Descriptor
)

// Value constructors.
var (
	// Int returns an integer value.
	Int = model.Int
	// Float returns a floating-point value.
	Float = model.Float
	// Bool returns a boolean value.
	Bool = model.Bool
	// String returns a string value.
	String = model.String
	// BytesValue returns a long-unstructured-data value.
	BytesValue = model.Bytes
	// Ref returns an object-reference value.
	Ref = model.Ref
	// SetOf returns a set value (normalized, deduplicated).
	SetOf = model.Set
	// Null is the null value.
	Null = model.Null
)

// Compare defines the total order over values (also the index key order).
var Compare = model.Compare

// ParseOID parses an OID literal, "@class:seq" (the "@" is optional).
var ParseOID = model.ParseOID

// Attrs is the attribute map passed to Insert and Update.
type Attrs = map[string]Value

// Attr declares one attribute at class-definition time. Domain names a
// class: a primitive ("Integer", "Float", "Boolean", "String", "Bytes"),
// any defined class, or the class being defined (self-reference).
type Attr struct {
	Name      string
	Domain    string
	SetValued bool
	Default   Value
}

// Options configures Open.
type Options struct {
	// PoolPages is the buffer pool capacity in 4 KiB pages (0 = 1024).
	PoolPages int
	// CheckpointBytes triggers an automatic checkpoint when the WAL grows
	// past this size (0 = 8 MiB).
	CheckpointBytes int64
	// NoSync skips the fsync at commit. Unsafe; benchmarking only.
	NoSync bool
}

// DB is an open database.
type DB struct {
	eng *core.DB
	q   *query.Engine
	mnt *maint.Manager

	// The feature layers' managers, one each, built on first use.
	layerMu    sync.Mutex
	versions   *version.Manager
	composites *composite.Manager
	checkouts  *checkout.Manager
	views      *views.Manager
}

// Open opens (or creates) a database in dir, running crash recovery if
// needed, and starts the database's maintenance manager: segments that go
// mostly dead are compacted in the background (DESIGN §11; Maintenance
// reaches the manager, and its Stop freezes the physical layout).
func Open(dir string, opts Options) (*DB, error) {
	eng, err := core.Open(dir, core.Options{
		PoolPages:       opts.PoolPages,
		CheckpointBytes: opts.CheckpointBytes,
		NoSync:          opts.NoSync,
	})
	if err != nil {
		return nil, err
	}
	mnt := maint.New(eng)
	mnt.Start()
	return &DB{eng: eng, q: query.NewEngine(eng), mnt: mnt}, nil
}

// Close stops the maintenance manager (waiting out a rewrite in flight),
// checkpoints and closes the database.
func (db *DB) Close() error {
	db.mnt.Stop()
	return db.eng.Close()
}

// Checkpoint forces a checkpoint (flush + WAL truncation).
func (db *DB) Checkpoint() error { return db.eng.Checkpoint() }

// Engine exposes the underlying engine for advanced integrations (the
// feature managers below use it internally).
func (db *DB) Engine() *core.DB { return db.eng }

// --- Schema -----------------------------------------------------------

// resolveClassNames maps class names to ids.
func (db *DB) resolveClassNames(names []string) ([]model.ClassID, error) {
	out := make([]model.ClassID, 0, len(names))
	for _, n := range names {
		cl, err := db.eng.Catalog.ClassByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, cl.ID)
	}
	return out, nil
}

// resolveAttrSpecs converts public Attr declarations, allowing the new
// class's own name as a self-referential domain.
func (db *DB) resolveAttrSpecs(selfName string, attrs []Attr) ([]schema.AttrSpec, []string, error) {
	specs := make([]schema.AttrSpec, 0, len(attrs))
	var selfAttrs []string
	for _, a := range attrs {
		if a.Domain == selfName {
			// Deferred: the class id does not exist yet.
			selfAttrs = append(selfAttrs, a.Name)
			continue
		}
		cl, err := db.eng.Catalog.ClassByName(a.Domain)
		if err != nil {
			return nil, nil, fmt.Errorf("oodb: attribute %q: %w", a.Name, err)
		}
		specs = append(specs, schema.AttrSpec{
			Name: a.Name, Domain: cl.ID, SetValued: a.SetValued, Default: a.Default,
		})
	}
	return specs, selfAttrs, nil
}

// DefineClass creates a class with the given direct superclasses (by
// name, in precedence order; empty means the root class Object) and
// attributes.
func (db *DB) DefineClass(name string, supers []string, attrs ...Attr) (*Class, error) {
	superIDs, err := db.resolveClassNames(supers)
	if err != nil {
		return nil, err
	}
	specs, selfAttrs, err := db.resolveAttrSpecs(name, attrs)
	if err != nil {
		return nil, err
	}
	cl, err := db.eng.DefineClass(name, superIDs, specs...)
	if err != nil {
		return nil, err
	}
	// Self-referential attributes are added once the class id exists.
	for _, a := range attrs {
		for _, sa := range selfAttrs {
			if a.Name != sa {
				continue
			}
			if _, err := db.eng.AddAttribute(cl.ID, schema.AttrSpec{
				Name: a.Name, Domain: cl.ID, SetValued: a.SetValued, Default: a.Default,
			}); err != nil {
				return nil, err
			}
		}
	}
	return cl, nil
}

// ClassByName returns a catalog entry.
func (db *DB) ClassByName(name string) (*Class, error) {
	return db.eng.Catalog.ClassByName(name)
}

// AddAttribute adds an attribute to an existing class (lazy evolution:
// existing instances read the default).
func (db *DB) AddAttribute(class string, a Attr) error {
	cl, err := db.eng.Catalog.ClassByName(class)
	if err != nil {
		return err
	}
	domain, err := db.eng.Catalog.ClassByName(a.Domain)
	if err != nil {
		return fmt.Errorf("oodb: attribute %q: %w", a.Name, err)
	}
	_, err = db.eng.AddAttribute(cl.ID, schema.AttrSpec{
		Name: a.Name, Domain: domain.ID, SetValued: a.SetValued, Default: a.Default,
	})
	return err
}

// DropAttribute removes a locally defined attribute (indexes using it are
// dropped).
func (db *DB) DropAttribute(class, attr string) error {
	cl, err := db.eng.Catalog.ClassByName(class)
	if err != nil {
		return err
	}
	return db.eng.DropAttribute(cl.ID, attr)
}

// AddSuperclass links class beneath super (dynamic hierarchy extension).
func (db *DB) AddSuperclass(class, super string) error {
	ids, err := db.resolveClassNames([]string{class, super})
	if err != nil {
		return err
	}
	return db.eng.AddSuperclass(ids[0], ids[1])
}

// DropClass removes a class, its instances and its indexes; subclasses
// re-link to its superclasses.
func (db *DB) DropClass(class string) error {
	cl, err := db.eng.Catalog.ClassByName(class)
	if err != nil {
		return err
	}
	return db.eng.DropClass(cl.ID)
}

// AddMethod defines a method on a class with its implementation.
func (db *DB) AddMethod(class, name string, impl MethodImpl) error {
	cl, err := db.eng.Catalog.ClassByName(class)
	if err != nil {
		return err
	}
	return db.eng.AddMethod(cl.ID, name, impl)
}

// RegisterMethod re-attaches an implementation to a persisted method
// signature after Open.
func (db *DB) RegisterMethod(class, name string, impl MethodImpl) error {
	cl, err := db.eng.Catalog.ClassByName(class)
	if err != nil {
		return err
	}
	return db.eng.RegisterMethod(cl.ID, name, impl)
}

// CreateIndex builds an index named name on the attribute path of class.
// With hierarchy true it is a class-hierarchy index covering the class
// and all its subclasses; a path longer than one attribute builds a
// nested-attribute index.
func (db *DB) CreateIndex(name, class string, path []string, hierarchy bool) error {
	cl, err := db.eng.Catalog.ClassByName(class)
	if err != nil {
		return err
	}
	return db.eng.CreateIndex(name, cl.ID, path, hierarchy)
}

// DropIndex removes an index.
func (db *DB) DropIndex(name string) error { return db.eng.DropIndex(name) }

// SnapshotSchema stores a durable, labeled snapshot of the current
// catalog ([KIM88a]-style schema versioning). Returns the catalog version
// captured.
func (db *DB) SnapshotSchema(label string) (uint64, error) {
	return db.eng.SnapshotSchema(label)
}

// SchemaVersions lists stored schema snapshots.
func (db *DB) SchemaVersions() ([]core.SchemaVersion, error) {
	return db.eng.SchemaVersions()
}

// DiffSchema compares a snapshot against the live schema, returning
// human-readable change lines (+/- class, +/- attr).
func (db *DB) DiffSchema(label string) ([]string, error) {
	return db.eng.DiffSchema(label)
}

// --- Data -------------------------------------------------------------

// Begin starts a transaction. Finish it with Commit or Abort.
func (db *DB) Begin() *Tx { return db.eng.Begin() }

// BeginSnapshot starts a read-only snapshot transaction pinned to the
// current commit epoch. Its reads never touch the lock manager — a bulk
// writer holding exclusive locks does not stall it — and writes through
// it fail with core.ErrReadOnlyTxn. Finish it with Commit or Abort
// (equivalent for a snapshot: both just release the epoch pin).
func (db *DB) BeginSnapshot() *Tx { return db.eng.BeginSnapshot() }

// QuerySnapshot parses, plans and runs a query in its own snapshot
// transaction: lock-free, reading the last commit epoch.
func (db *DB) QuerySnapshot(src string) (*Result, error) {
	tx := db.BeginSnapshot()
	defer tx.Commit()
	return db.q.Run(tx, src)
}

// Do runs fn in a transaction, committing on nil and aborting on error,
// with one automatic retry after a deadlock.
func (db *DB) Do(fn func(tx *Tx) error) error { return db.eng.Do(fn) }

// Fetch returns the newest committed state of an object. It takes no lock
// and registers no snapshot, so it never waits for a writer, and it never
// returns the write of a transaction still open. For a read that stays
// the same until the transaction ends use Tx.Fetch (locked) or a snapshot
// (BeginSnapshot); inside a transaction, Tx.Read also sees its own writes.
func (db *DB) Fetch(oid OID) (*Object, error) { return db.eng.Fetch(oid) }

// Get reads an attribute of an object by name, applying inheritance and
// class defaults.
func (db *DB) Get(obj *Object, attr string) (Value, error) {
	return db.eng.AttrValue(obj, attr)
}

// Send dispatches a message to an object with late binding.
func (db *DB) Send(oid OID, message string, args ...Value) (Value, error) {
	return db.eng.Send(oid, message, args...)
}

// Query parses, plans and runs a query in its own read-only transaction.
func (db *DB) Query(src string) (*Result, error) {
	tx := db.Begin()
	defer tx.Commit()
	return db.q.Run(tx, src)
}

// QueryTx runs a query inside an existing transaction.
func (db *DB) QueryTx(tx *Tx, src string) (*Result, error) {
	return db.q.Run(tx, src)
}

// Explain returns the access plan chosen for a query.
func (db *DB) Explain(src string) (string, error) { return db.q.Explain(src) }

// ExplainAnalyze runs the query in its own read-only transaction and
// returns the plan annotated with execution statistics: per-class rows
// scanned, index probes, buffer pool hits/misses, parallel fan-out, and
// per-stage timings (see internal/obs spans and DESIGN.md §Observability).
func (db *DB) ExplainAnalyze(src string) (string, error) {
	tx := db.Begin()
	defer tx.Commit()
	return db.q.ExplainAnalyze(tx, src)
}

// Metrics returns a point-in-time snapshot of every process-wide metric
// registered with the observability registry (counters, gauges and latency
// histograms across the storage, WAL, query, index and workspace layers).
// The snapshot marshals to JSON; it is what the -http metrics endpoint
// serves.
func (db *DB) Metrics() obs.Snapshot { return obs.TakeSnapshot() }

// SetMetricsEnabled toggles metric collection process-wide (default on).
// Disabled metrics cost one atomic load per update site.
func SetMetricsEnabled(on bool) { obs.SetEnabled(on) }

// QueryEngine exposes the query engine for plan-level integration (parse,
// plan and execute as separate steps) and its one switch, ForceScan.
func (db *DB) QueryEngine() *query.Engine { return db.q }

// NewWorkspace returns a memory-resident object workspace (OID→pointer
// swizzling; see Workspace).
func (db *DB) NewWorkspace() *Workspace { return workspace.New(db.eng) }

// Maintenance returns the manager Open started, which compacts sparse
// segments on its own (DESIGN §11); Stop it to keep the layout as it is.
// On-demand compaction, statistics and leaked-page reclaim are engine
// calls: Engine().CompactClass, AnalyzeClass and ReclaimLeaked.
func (db *DB) Maintenance() *maint.Manager { return db.mnt }

// --- Feature layers ----------------------------------------------------

// Versions returns the version-management layer (Chou-Kim model). It and
// the three accessors below return the database's one manager of a layer,
// built on the first call and safe for concurrent use, so what a manager
// keeps in memory belongs to the database. A failed build (a damaged
// system record is ErrCorrupt) is not kept: the next call builds again.
func (db *DB) Versions() (*version.Manager, error) { return layer(db, &db.versions, version.New) }

// Composites returns the composite-object layer (part-of semantics).
func (db *DB) Composites() (*composite.Manager, error) {
	return layer(db, &db.composites, composite.New)
}

// Checkouts returns the long-transaction (checkout/checkin) layer, which
// holds each user's private workspace.
func (db *DB) Checkouts() (*checkout.Manager, error) { return layer(db, &db.checkouts, checkout.New) }

// Views returns the view layer, whose names this database's queries
// resolve: db.Query can use FROM <ViewName>.
func (db *DB) Views() (*views.Manager, error) {
	return layer(db, &db.views, func(eng *core.DB) (*views.Manager, error) { return views.New(eng, db.q) })
}

// layer returns *slot, building it first if it is nil.
func layer[M any](db *DB, slot **M, build func(*core.DB) (*M, error)) (*M, error) {
	db.layerMu.Lock()
	defer db.layerMu.Unlock()
	if *slot == nil {
		m, err := build(db.eng)
		if err != nil {
			return nil, err
		}
		*slot = m
	}
	return *slot, nil
}

// Authorizer returns a fresh authorization lattice bound to this
// database's class hierarchy.
func (db *DB) Authorizer() *authz.Authorizer { return authz.New(db.eng.Catalog) }

// RuleEngine returns a deductive rule engine over this database; map
// classes and attributes to predicates via the returned EDB adapter.
func (db *DB) RuleEngine() (*rules.Engine, *rules.ObjectEDB) {
	edb := rules.NewObjectEDB(db.eng)
	return rules.NewEngine(edb), edb
}

// FederationSource exports this database as a member of a federation.
func (db *DB) FederationSource() federation.Source {
	return federation.NewOOSource(db.eng)
}
