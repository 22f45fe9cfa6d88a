// Package checkout implements long-duration transactions via checkout and
// checkin of objects between a shared database and private workspaces —
// the CAx requirement the paper lists in §3.3 ("long-duration
// transactions, checkout and checkin of objects between a shared database
// and private databases").
//
// A designer checks objects out into a named private workspace: the
// checkout is recorded persistently in the shared database (it survives
// restarts — that is what makes the transaction "long"), and the objects
// are copied into a private in-memory workspace where the designer
// iterates without holding short-term locks. Checkin writes the private
// state back in one short transaction and releases the checkout. Other
// designers can read checked-out objects but cannot check them out or
// check in over them (the cooperative write protocol of ORION).
package checkout

import (
	"errors"
	"fmt"
	"sync"

	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/schema"
	"oodb/internal/workspace"
)

// Errors of the checkout layer.
var (
	ErrCheckedOut    = errors.New("checkout: object is checked out by another user")
	ErrNotCheckedOut = errors.New("checkout: object is not checked out by this user")
)

const recordClassName = "CheckoutRecord"

// Manager mediates checkout/checkin against one shared database. It is
// safe for concurrent use; each user's workspace is used by one goroutine
// at a time.
type Manager struct {
	db     *core.DB
	record *schema.Class
	fields [2]model.Field // the record's object and user (defined, so numbered, in this order)

	mu sync.Mutex
	// privates holds each user's private workspace (the "private
	// database" of the paper, realized as a memory-resident workspace).
	privates map[string]*workspace.Workspace
}

// New creates (or re-attaches) the checkout layer. Existing checkout
// records in the shared database remain in force.
func New(db *core.DB) (*Manager, error) {
	cl, err := db.SystemClass(recordClassName,
		schema.AttrSpec{Name: "object", Domain: schema.ClassObject},
		schema.AttrSpec{Name: "user", Domain: schema.ClassString},
	)
	if err != nil {
		return nil, err
	}
	m := &Manager{db: db, record: cl, privates: make(map[string]*workspace.Workspace)}
	for i, name := range []string{"object", "user"} {
		a, err := db.Catalog.ResolveAttr(cl.ID, name)
		if err != nil {
			return nil, err
		}
		m.fields[i].ID = a.ID
	}
	return m, nil
}

// Workspace returns the user's private workspace, creating it on first
// use.
func (m *Manager) Workspace(user string) *workspace.Workspace {
	m.mu.Lock()
	defer m.mu.Unlock()
	ws, ok := m.privates[user]
	if !ok {
		ws = workspace.New(m.db)
		m.privates[user] = ws
	}
	return ws
}

// records calls fn with each checkout record of tx, the object it checks
// out and its user, until fn returns false. tx is a snapshot, or holds X
// on the object the caller looks for (lockHolder).
func (m *Manager) records(tx *core.Tx, fn func(rec, oid model.OID, user string) bool) error {
	fields := m.fields
	return tx.ScanLocked(m.record.ID, fields[:], func(im model.Image) bool {
		oid, _ := fields[0].V.AsRef()
		user, _ := fields[1].V.AsString()
		return fn(im.OID(), oid, user)
	})
}

// holder returns who has oid checked out in tx ("" if nobody) and the
// record's OID.
func (m *Manager) holder(tx *core.Tx, oid model.OID) (user string, rec model.OID, err error) {
	err = m.records(tx, func(r, o model.OID, u string) bool {
		if o == oid {
			user, rec = u, r
		}
		return o != oid
	})
	return user, rec, err
}

// lockHolder takes X on oid in tx and then reads who holds it. Every
// transaction that writes a checkout record for oid starts here, so the
// scan sees no other transaction's uncommitted record for oid. A deleted
// object is still locked, so its checkout can be released.
func (m *Manager) lockHolder(tx *core.Tx, oid model.OID) (string, model.OID, error) {
	if _, err := tx.FetchForUpdate(oid); err != nil && !errors.Is(err, core.ErrNoObject) {
		return "", model.NilOID, err
	}
	return m.holder(tx, oid)
}

// Holder reports who has the object checked out ("" if nobody), as
// committed.
func (m *Manager) Holder(oid model.OID) (string, error) {
	tx := m.db.BeginSnapshot()
	defer tx.Commit()
	user, _, err := m.holder(tx, oid)
	return user, err
}

// Checkout copies the object into the user's private workspace and
// records the checkout persistently. Checking out an object you already
// hold is a no-op returning the resident descriptor.
func (m *Manager) Checkout(user string, oid model.OID) (*workspace.Descriptor, error) {
	var d *workspace.Descriptor
	err := m.db.Do(func(tx *core.Tx) error {
		cur, _, err := m.lockHolder(tx, oid)
		if err != nil {
			return err
		}
		switch cur {
		case "":
			if _, err := tx.InsertClass(m.record.ID, map[string]model.Value{
				"object": model.Ref(oid),
				"user":   model.String(user),
			}); err != nil {
				return err
			}
		case user:
			// Already ours.
		default:
			return fmt.Errorf("%w: held by %q", ErrCheckedOut, cur)
		}
		d, err = m.Workspace(user).Fetch(oid)
		return err
	})
	return d, err
}

// CheckoutComposite checks out an object together with the given
// components (the caller typically supplies composite.Components output).
func (m *Manager) CheckoutComposite(user string, root model.OID, components []model.OID) ([]*workspace.Descriptor, error) {
	all := append([]model.OID{root}, components...)
	out := make([]*workspace.Descriptor, 0, len(all))
	for _, oid := range all {
		d, err := m.Checkout(user, oid)
		if err != nil {
			// Roll back the checkouts made so far.
			for _, done := range all[:len(out)] {
				m.Cancel(user, done)
			}
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// Checkin writes the user's private changes to the object back to the
// shared database and releases the checkout, in one transaction. Other
// objects in the workspace are left as they are.
func (m *Manager) Checkin(user string, oid model.OID) error { return m.release(user, oid, true) }

// Cancel abandons a checkout: the object's private copy is dropped
// without writing back, and the checkout released.
func (m *Manager) Cancel(user string, oid model.OID) error { return m.release(user, oid, false) }

// release ends user's checkout of oid, writing the private state back
// first when save is set, and then drops the private copy.
func (m *Manager) release(user string, oid model.OID, save bool) error {
	ws := m.Workspace(user)
	err := m.db.Do(func(tx *core.Tx) error {
		cur, rec, err := m.lockHolder(tx, oid)
		if err != nil {
			return err
		}
		if cur != user {
			return fmt.Errorf("%w: %s", ErrNotCheckedOut, oid)
		}
		if save {
			if err := ws.WriteBack(tx, oid); err != nil {
				return err
			}
		}
		return tx.Delete(rec)
	})
	if err != nil {
		return err
	}
	ws.Discard(oid)
	return nil
}

// GuardUpdate enforces the cooperative protocol for direct shared-database
// writers: an update through this guard fails while someone else holds the
// object checked out.
func (m *Manager) GuardUpdate(tx *core.Tx, user string, oid model.OID, attrs map[string]model.Value) error {
	cur, _, err := m.lockHolder(tx, oid)
	if err != nil {
		return err
	}
	if cur != "" && cur != user {
		return fmt.Errorf("%w: held by %q", ErrCheckedOut, cur)
	}
	return tx.Update(oid, attrs)
}

// CheckedOutBy lists the objects a user holds, as committed.
func (m *Manager) CheckedOutBy(user string) ([]model.OID, error) {
	tx := m.db.BeginSnapshot()
	defer tx.Commit()
	var out []model.OID
	err := m.records(tx, func(_, oid model.OID, u string) bool {
		if u == user {
			out = append(out, oid)
		}
		return true
	})
	return out, err
}
