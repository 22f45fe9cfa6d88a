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

// Manager mediates checkout/checkin against one shared database.
type Manager struct {
	db     *core.DB
	record *schema.Class

	// privates holds each user's private workspace (the "private
	// database" of the paper, realized as a memory-resident workspace).
	privates map[string]*workspace.Workspace
}

// New creates (or re-attaches) the checkout layer. Existing checkout
// records in the shared database remain in force.
func New(db *core.DB) (*Manager, error) {
	m := &Manager{db: db, privates: make(map[string]*workspace.Workspace)}
	cl, err := db.SystemClass(recordClassName,
		schema.AttrSpec{Name: "object", Domain: schema.ClassObject},
		schema.AttrSpec{Name: "user", Domain: schema.ClassString},
	)
	if err != nil {
		return nil, err
	}
	m.record = cl
	return m, nil
}

// Workspace returns the user's private workspace, creating it on first
// use.
func (m *Manager) Workspace(user string) *workspace.Workspace {
	ws, ok := m.privates[user]
	if !ok {
		ws = workspace.New(m.db)
		m.privates[user] = ws
	}
	return ws
}

// holder returns who has oid checked out ("" if nobody) and the record's
// OID.
func (m *Manager) holder(oid model.OID) (string, model.OID, error) {
	var user string
	var rec model.OID
	err := m.db.ScanObjects([]model.ClassID{m.record.ID}, func(obj *model.Object) bool {
		v, _ := m.db.AttrValue(obj, "object")
		if ref, ok := v.AsRef(); ok && ref == oid {
			uv, _ := m.db.AttrValue(obj, "user")
			user, _ = uv.AsString()
			rec = obj.OID
			return false
		}
		return true
	})
	return user, rec, err
}

// Holder reports who has the object checked out ("" if nobody).
func (m *Manager) Holder(oid model.OID) (string, error) {
	user, _, err := m.holder(oid)
	return user, err
}

// Checkout copies the object into the user's private workspace and
// records the checkout persistently. Checking out an object you already
// hold is a no-op returning the resident descriptor.
func (m *Manager) Checkout(user string, oid model.OID) (*workspace.Descriptor, error) {
	cur, _, err := m.holder(oid)
	if err != nil {
		return nil, err
	}
	switch cur {
	case "":
		err := m.db.Do(func(tx *core.Tx) error {
			// Short lock to serialize competing checkouts.
			if _, err := tx.Fetch(oid); err != nil {
				return err
			}
			_, err := tx.InsertClass(m.record.ID, map[string]model.Value{
				"object": model.Ref(oid),
				"user":   model.String(user),
			})
			return err
		})
		if err != nil {
			return nil, err
		}
	case user:
		// Already ours.
	default:
		return nil, fmt.Errorf("%w: held by %q", ErrCheckedOut, cur)
	}
	return m.Workspace(user).Fetch(oid)
}

// CheckoutComposite checks out an object together with the given
// components (the caller typically supplies composite.Components output).
func (m *Manager) CheckoutComposite(user string, root model.OID, components []model.OID) ([]*workspace.Descriptor, error) {
	all := append([]model.OID{root}, components...)
	out := make([]*workspace.Descriptor, 0, len(all))
	var done []model.OID
	for _, oid := range all {
		d, err := m.Checkout(user, oid)
		if err != nil {
			// Roll back the checkouts made so far.
			for _, u := range done {
				m.Cancel(user, u)
			}
			return nil, err
		}
		done = append(done, oid)
		out = append(out, d)
	}
	return out, nil
}

// Checkin writes the user's private changes to the object back to the
// shared database and releases the checkout.
func (m *Manager) Checkin(user string, oid model.OID) error {
	cur, rec, err := m.holder(oid)
	if err != nil {
		return err
	}
	if cur != user {
		return fmt.Errorf("%w: %s", ErrNotCheckedOut, oid)
	}
	ws := m.Workspace(user)
	// Save flushes every dirty descriptor in the workspace; per-object
	// checkin writes just this object if dirty.
	if ws.Resident(oid) {
		if err := ws.Save(); err != nil {
			return err
		}
		ws.Evict(oid)
	}
	return m.db.Do(func(tx *core.Tx) error {
		return tx.Delete(rec)
	})
}

// Cancel abandons a checkout without writing back.
func (m *Manager) Cancel(user string, oid model.OID) error {
	cur, rec, err := m.holder(oid)
	if err != nil {
		return err
	}
	if cur != user {
		return fmt.Errorf("%w: %s", ErrNotCheckedOut, oid)
	}
	ws := m.Workspace(user)
	ws.Discard() // drop private state (all of it: cancel is abandonment)
	return m.db.Do(func(tx *core.Tx) error {
		return tx.Delete(rec)
	})
}

// GuardUpdate enforces the cooperative protocol for direct shared-database
// writers: an update through this guard fails while someone else holds the
// object checked out.
func (m *Manager) GuardUpdate(tx *core.Tx, user string, oid model.OID, attrs map[string]model.Value) error {
	cur, _, err := m.holder(oid)
	if err != nil {
		return err
	}
	if cur != "" && cur != user {
		return fmt.Errorf("%w: held by %q", ErrCheckedOut, cur)
	}
	return tx.Update(oid, attrs)
}

// CheckedOutBy lists the objects a user currently holds.
func (m *Manager) CheckedOutBy(user string) ([]model.OID, error) {
	var out []model.OID
	err := m.db.ScanObjects([]model.ClassID{m.record.ID}, func(obj *model.Object) bool {
		uv, _ := m.db.AttrValue(obj, "user")
		if u, _ := uv.AsString(); u != user {
			return true
		}
		v, _ := m.db.AttrValue(obj, "object")
		if ref, ok := v.AsRef(); ok {
			out = append(out, ref)
		}
		return true
	})
	return out, err
}
