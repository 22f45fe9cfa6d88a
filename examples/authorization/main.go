// Authorization example (Kim §3.2, §5.4; Rabitti-Bertino-Kim): the role
// lattice, implicit authorization along the granularity lattice, explicit
// negatives at attribute granularity, and enforcement through role-bound
// sessions — plus content-based authorization via a view.
package main

import (
	"fmt"
	"log"
	"os"

	"oodb"
	"oodb/internal/authz"
)

func main() {
	dir, err := os.MkdirTemp("", "kimdb-authz")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	db, err := oodb.Open(dir, oodb.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Schema and data: employees with salaries; some records classified.
	if _, err := db.DefineClass("Employee", nil,
		oodb.Attr{Name: "name", Domain: "String"},
		oodb.Attr{Name: "salary", Domain: "Integer"},
		oodb.Attr{Name: "classified", Domain: "Boolean"},
	); err != nil {
		log.Fatal(err)
	}
	var alice, mole oodb.OID
	must(db.Do(func(tx *oodb.Tx) error {
		alice, _ = tx.Insert("Employee", oodb.Attrs{
			"name": oodb.String("alice"), "salary": oodb.Int(200),
			"classified": oodb.Bool(false)})
		mole, _ = tx.Insert("Employee", oodb.Attrs{
			"name": oodb.String("mole"), "salary": oodb.Int(999),
			"classified": oodb.Bool(true)})
		return nil
	}))

	// Role lattice: director > manager > staff.
	cl, _ := db.ClassByName("Employee")
	az := db.Authorizer()
	for _, r := range []string{"director", "manager", "staff"} {
		az.AddRole(r)
	}
	must(az.AddRoleEdge("director", "manager"))
	must(az.AddRoleEdge("manager", "staff"))

	// Grants. Note the RBK subtlety: a stronger role inherits ALL of its
	// subordinates' authorizations — including negatives — so overriding
	// an inherited negative takes a STRONG positive at the higher role.
	must(az.Grant(authz.Grant{Role: "staff", Type: authz.Read, Object: authz.ClassDeep(cl.ID)}))
	must(az.Grant(authz.Grant{Role: "staff", Type: authz.Read,
		Object: authz.Attribute(cl.ID, "salary"), Negative: true})) // salaries hidden
	must(az.Grant(authz.Grant{Role: "staff", Type: authz.Read,
		Object: authz.Instance(mole), Negative: true})) // classified record hidden
	must(az.Grant(authz.Grant{Role: "manager", Type: authz.Write, Object: authz.ClassDeep(cl.ID)}))
	must(az.Grant(authz.Grant{Role: "manager", Type: authz.Write,
		Object: authz.Attribute(cl.ID, "salary"), Strong: true})) // managers handle pay
	must(az.Grant(authz.Grant{Role: "director", Type: authz.Read,
		Object: authz.Instance(mole), Strong: true})) // directors see everything

	// Sessions enforce the lattice.
	for _, role := range []string{"staff", "manager", "director"} {
		sess := db.Session(az, role)
		res, err := sess.Query(`SELECT name FROM Employee ORDER BY name`)
		must(err)
		fmt.Printf("%-8s sees %d employee(s):", role, len(res.Rows))
		for _, row := range res.Rows {
			fmt.Printf(" %v", row.Values[0])
		}
		// Fetch returns the view of alice the role may see; an attribute it
		// is forbidden to read is simply absent from it.
		if obj, err := sess.Fetch(alice); err == nil {
			if _, visible := obj.Attrs["salary"]; visible {
				fmt.Print("  [salary visible]")
			} else {
				fmt.Print("  [salary hidden]")
			}
		}
		fmt.Println()
	}

	// The prohibition holds in every verb: Get refuses the attribute, and a
	// statement that projects, filters, sorts or aggregates on it is
	// refused whole rather than answered.
	staff := db.Session(az, "staff")
	if _, err := staff.Get(alice, "salary"); err != nil {
		fmt.Println("staff Get(alice, salary) refused:", err)
	}
	if _, err := staff.Query(`SELECT salary FROM Employee`); err != nil {
		fmt.Println("staff SELECT salary refused:", err)
	}

	// Writes: staff refused, manager allowed (inheriting staff's read).
	if err := staff.Update(alice, oodb.Attrs{"salary": oodb.Int(0)}); err != nil {
		fmt.Println("staff raise refused:", err)
	}
	manager := db.Session(az, "manager")
	must(manager.Update(alice, oodb.Attrs{"salary": oodb.Int(210)}))
	fmt.Println("manager adjusted alice's salary")

	// Content-based authorization via a view: the audit role sees exactly
	// the unclassified partition, whatever it contains over time.
	views, err := db.Views()
	must(err)
	must(views.Define("Unclassified", `SELECT * FROM Employee WHERE classified = false`))
	tx := db.Begin()
	visible, err := views.Visible(tx, "Unclassified", alice)
	must(err)
	hidden, err := views.Visible(tx, "Unclassified", mole)
	must(err)
	tx.Commit()
	fmt.Printf("view-based audit: alice visible=%v, mole visible=%v\n", visible, hidden)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
