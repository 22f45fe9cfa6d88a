package oodb

import (
	"errors"
	"strings"
	"testing"

	"oodb/internal/authz"
)

// sessionWorld: Employees with salaries and a boss; HR reads everything,
// staff read everything except salary, interns see nothing.
func sessionWorld(t *testing.T) (*DB, *authz.Authorizer, OID) {
	t.Helper()
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.DefineClass("Employee", nil,
		Attr{Name: "name", Domain: "String"},
		Attr{Name: "salary", Domain: "Integer"},
		Attr{Name: "boss", Domain: "Employee"},
	); err != nil {
		t.Fatal(err)
	}
	var alice OID
	db.Do(func(tx *Tx) error {
		var err error
		alice, err = tx.Insert("Employee", Attrs{
			"name": String("alice"), "salary": Int(200)})
		return err
	})
	cl, _ := db.ClassByName("Employee")
	az := db.Authorizer()
	for _, r := range []string{"hr", "staff", "intern"} {
		az.AddRole(r)
	}
	az.Grant(authz.Grant{Role: "hr", Type: authz.Write, Object: authz.ClassDeep(cl.ID)})
	az.Grant(authz.Grant{Role: "staff", Type: authz.Read, Object: authz.ClassDeep(cl.ID)})
	az.Grant(authz.Grant{Role: "staff", Type: authz.Read,
		Object: authz.Attribute(cl.ID, "salary"), Negative: true})
	return db, az, alice
}

func TestSessionQueryFiltering(t *testing.T) {
	db, az, _ := sessionWorld(t)
	// Staff see the row; interns see nothing; neither errors.
	res, err := db.Session(az, "staff").Query(`SELECT name FROM Employee`)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("staff rows = %d, %v", len(res.Rows), err)
	}
	res, err = db.Session(az, "intern").Query(`SELECT name FROM Employee`)
	if err != nil || len(res.Rows) != 0 {
		t.Fatalf("intern rows = %d, %v", len(res.Rows), err)
	}
}

// salaryStatements all read the salary attribute somewhere: projection,
// predicate, ORDER BY, aggregate argument, and the second step of a path.
// internal/server's TestAuthorizationEnforced runs the same list over the
// wire and requires the two doors to agree.
var salaryStatements = []string{
	`SELECT salary FROM Employee`,
	`SELECT name FROM Employee WHERE salary > 100`,
	`SELECT name FROM Employee ORDER BY salary`,
	`SELECT SUM(salary) FROM Employee`,
	`SELECT name FROM Employee WHERE boss.salary > 100`,
}

func TestSessionAttributeHiding(t *testing.T) {
	db, az, alice := sessionWorld(t)
	staff := db.Session(az, "staff")
	hr := db.Session(az, "hr")
	// name readable, salary hidden by the attribute negative.
	if _, err := staff.Get(alice, "name"); err != nil {
		t.Fatalf("name: %v", err)
	}
	if _, err := staff.Get(alice, "salary"); !errors.Is(err, authz.ErrDenied) {
		t.Fatalf("salary: expected denial, got %v", err)
	}
	// HR reads both (write implies read; no negative for hr).
	if _, err := hr.Get(alice, "salary"); err != nil {
		t.Fatalf("hr salary: %v", err)
	}
	// Fetch leaves the forbidden attribute out of the view.
	obj, err := staff.Fetch(alice)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := obj.Attrs["salary"]; ok || Compare(obj.Attrs["name"], String("alice")) != 0 {
		t.Fatalf("staff fetch: %v", obj.Attrs)
	}
	if obj, err = hr.Fetch(alice); err != nil || Compare(obj.Attrs["salary"], Int(200)) != 0 {
		t.Fatalf("hr fetch: %v %v", obj, err)
	}
	// A statement that reads salary anywhere is refused for staff, not
	// answered with the values or filtered on them.
	for _, stmt := range salaryStatements {
		if _, err := staff.Query(stmt); !errors.Is(err, authz.ErrDenied) {
			t.Errorf("staff %s: expected denial, got %v", stmt, err)
		}
		if _, err := staff.QuerySnapshot(stmt); !errors.Is(err, authz.ErrDenied) {
			t.Errorf("staff snapshot %s: expected denial, got %v", stmt, err)
		}
		if _, err := hr.Query(stmt); err != nil {
			t.Errorf("hr %s: %v", stmt, err)
		}
	}
}

// subclassSalaryStatements read Employee's salary over a hierarchy whose
// subclass Mgr's salary is forbidden: projection, predicate, ORDER BY,
// aggregate argument, and the second step of a path whose domain has Mgr
// below it. internal/server's TestAuthorizationEnforced runs the same list
// over the wire.
var subclassSalaryStatements = []string{
	`SELECT name, salary FROM Employee`,
	`SELECT name FROM Employee WHERE salary > 100`,
	`SELECT name FROM Employee ORDER BY salary`,
	`SELECT SUM(salary) FROM Employee`,
	`SELECT name FROM ONLY Employee WHERE boss.salary > 100`,
}

// TestSessionSubclassAttributeProhibition: a prohibition on a subclass's
// attribute holds in a statement over its superclass, whose scope takes in
// the subclass's instances, and behind a reference whose domain is the
// superclass. FROM ONLY reads the superclass alone and answers.
func TestSessionSubclassAttributeProhibition(t *testing.T) {
	db, az, alice := sessionWorld(t)
	mgr, err := db.DefineClass("Mgr", []string{"Employee"})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Do(func(tx *Tx) error {
		bob, err := tx.Insert("Mgr", Attrs{"name": String("bob"), "salary": Int(999)})
		if err != nil {
			return err
		}
		return tx.Update(alice, Attrs{"boss": Ref(bob)})
	}); err != nil {
		t.Fatal(err)
	}
	az.AddRole("lead")
	emp, _ := db.ClassByName("Employee")
	az.Grant(authz.Grant{Role: "lead", Type: authz.Read, Object: authz.ClassDeep(emp.ID)})
	az.Grant(authz.Grant{Role: "lead", Type: authz.Read,
		Object: authz.Attribute(mgr.ID, "salary"), Negative: true})
	lead := db.Session(az, "lead")
	for _, stmt := range append(subclassSalaryStatements, `SELECT salary FROM Mgr`) {
		if _, err := lead.Query(stmt); !errors.Is(err, authz.ErrDenied) {
			t.Errorf("lead %s: expected denial, got %v", stmt, err)
		}
		if _, err := lead.QuerySnapshot(stmt); !errors.Is(err, authz.ErrDenied) {
			t.Errorf("lead snapshot %s: expected denial, got %v", stmt, err)
		}
	}
	for _, stmt := range subclassSalaryStatements[:4] {
		only := strings.Replace(stmt, "FROM Employee", "FROM ONLY Employee", 1)
		if _, err := lead.Query(only); err != nil {
			t.Errorf("lead %s: %v", only, err)
		}
	}
	res, err := lead.Query(`SELECT name, salary FROM ONLY Employee`)
	if err != nil || len(res.Rows) != 1 || Compare(res.Rows[0].Values[1], Int(200)) != 0 {
		t.Fatalf("lead ONLY Employee: %v %v", res, err)
	}
}

// TestSessionTransaction: the data verbs join the session's explicit
// transaction, a query inside it reads its uncommitted writes, and the
// transaction-state errors are typed.
func TestSessionTransaction(t *testing.T) {
	db, _, alice := sessionWorld(t)
	s := db.Session(nil, "")
	if err := s.Commit(); !errors.Is(err, ErrNoTx) {
		t.Fatalf("commit without tx: %v", err)
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(); !errors.Is(err, ErrTxOpen) {
		t.Fatalf("double begin: %v", err)
	}
	bob, err := s.Insert("Employee", Attrs{"name": String("bob"), "boss": Ref(alice)})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := s.Query(`SELECT name FROM Employee WHERE boss.name = 'alice'`); err != nil || len(res.Rows) != 1 {
		t.Fatalf("in-tx query: %v %v", res, err)
	}
	if res, err := s.QuerySnapshot(`SELECT name FROM Employee`); err != nil || len(res.Rows) != 1 {
		t.Fatalf("snapshot inside tx sees uncommitted rows: %v %v", res, err)
	}
	if err := s.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fetch(bob); err == nil {
		t.Fatal("aborted insert still fetchable")
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(alice, Attrs{"salary": Int(300)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Get(alice, "salary"); err != nil || Compare(v, Int(300)) != 0 {
		t.Fatalf("after commit: %v %v", v, err)
	}
}

func TestSessionWriteEnforcement(t *testing.T) {
	db, az, alice := sessionWorld(t)
	staff := db.Session(az, "staff")
	if err := staff.Update(alice, Attrs{"name": String("x")}); !errors.Is(err, authz.ErrDenied) {
		t.Fatalf("staff update: %v", err)
	}
	if _, err := staff.Insert("Employee", Attrs{"name": String("bob")}); !errors.Is(err, authz.ErrDenied) {
		t.Fatalf("staff insert: %v", err)
	}
	if err := staff.Delete(alice); !errors.Is(err, authz.ErrDenied) {
		t.Fatalf("staff delete: %v", err)
	}
	hr := db.Session(az, "hr")
	if err := hr.Update(alice, Attrs{"salary": Int(210)}); err != nil {
		t.Fatalf("hr update: %v", err)
	}
	bob, err := hr.Insert("Employee", Attrs{"name": String("bob")})
	if err != nil {
		t.Fatalf("hr insert: %v", err)
	}
	if err := hr.Delete(bob); err != nil {
		t.Fatalf("hr delete: %v", err)
	}
}

func TestSessionAttributeWriteProhibition(t *testing.T) {
	db, az, alice := sessionWorld(t)
	cl, _ := db.ClassByName("Employee")
	az.AddRole("auditor")
	az.Grant(authz.Grant{Role: "auditor", Type: authz.Write, Object: authz.ClassDeep(cl.ID)})
	az.Grant(authz.Grant{Role: "auditor", Type: authz.Write,
		Object: authz.Attribute(cl.ID, "salary"), Negative: true})
	auditor := db.Session(az, "auditor")
	// May rename, may not touch salary.
	if err := auditor.Update(alice, Attrs{"name": String("a2")}); err != nil {
		t.Fatalf("auditor rename: %v", err)
	}
	if err := auditor.Update(alice, Attrs{"salary": Int(0)}); !errors.Is(err, authz.ErrDenied) {
		t.Fatalf("auditor salary write: %v", err)
	}
}

func TestSessionAggregateRequiresDatabaseRead(t *testing.T) {
	db, az, _ := sessionWorld(t)
	// Aggregates have no row identity; only a database-wide reader sees
	// them through a session.
	res, err := db.Session(az, "staff").Query(`SELECT COUNT(*) FROM Employee`)
	if err != nil || len(res.Rows) != 0 {
		t.Fatalf("staff aggregate rows = %d, %v", len(res.Rows), err)
	}
	az.AddRole("root")
	az.Grant(authz.Grant{Role: "root", Type: authz.Read, Object: authz.Database()})
	res, err = db.Session(az, "root").Query(`SELECT COUNT(*) FROM Employee`)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("root aggregate rows = %d, %v", len(res.Rows), err)
	}
}
