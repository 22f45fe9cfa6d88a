package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"oodb"
	"oodb/internal/model"
)

// world is the in-memory model of the dataset embed.query, wire.mixed and
// shard.scatter run on. The generator builds it from the seed alone; the
// loader writes it into one database or partitions it over several, and the
// oracle answers the query mix from it without touching a database.
//
// internal/bench's BuildHierarchy and BuildVehicleWorld create the same
// schemas but load one database and keep no model, so they can neither
// partition the data over shard members nor answer for it; this loader does
// both jobs for all three workloads.
type world struct {
	hClass    []int // H row -> class number (H0..H6)
	hVal      []int
	coClass   []int // company -> 0 Company, 1 AutoCompany, 2 TruckCompany
	coLoc     []int // company -> city
	divCity   []int // company's division -> city
	vehClass  []int // vehicle -> 0 Vehicle, 1 Automobile, 2 Truck
	vehWeight []int
	vehYear   []int
	vehMfr    []int // vehicle -> company
}

var (
	hClasses       = []string{"H0", "H1", "H2", "H3", "H4", "H5", "H6"}
	hParent        = []int{-1, 0, 0, 1, 1, 2, 2}
	companyClasses = []string{"Company", "AutoCompany", "TruckCompany"}
	vehicleClasses = []string{"Vehicle", "Automobile", "Truck"}
)

// inH1 reports whether class c is H1 or below it.
func inH1(c int) bool { return c == 1 || c == 3 || c == 4 }

func genWorld(seed int64) *world {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	w := &world{}
	for c := range hClasses {
		for i := 0; i < hPerClass; i++ {
			w.hClass = append(w.hClass, c)
			w.hVal = append(w.hVal, r.Intn(hValRange))
		}
	}
	for i := 0; i < nCompanies; i++ {
		w.coClass = append(w.coClass, i%len(companyClasses))
		w.coLoc = append(w.coLoc, r.Intn(nCities))
		w.divCity = append(w.divCity, r.Intn(nCities))
	}
	for i := 0; i < nVehicles; i++ {
		w.vehClass = append(w.vehClass, i%len(vehicleClasses))
		w.vehWeight = append(w.vehWeight, 1000+r.Intn(weightStep-1000))
		w.vehYear = append(w.vehYear, 1990+r.Intn(30))
		w.vehMfr = append(w.vehMfr, r.Intn(nCompanies))
	}
	return w
}

func vid(i int) string { return fmt.Sprintf("v%d", i) }

// placed records where the loader put the model's objects.
type placed struct {
	vehOID    []oodb.OID // local to the vehicle's member
	coOID     []oodb.OID
	userBytes int64
}

func defineWorldSchema(db *oodb.DB) error {
	for c, name := range hClasses {
		var err error
		if hParent[c] < 0 {
			_, err = db.DefineClass(name, nil,
				oodb.Attr{Name: "val", Domain: "Integer"},
				oodb.Attr{Name: "tag", Domain: "String"})
		} else {
			_, err = db.DefineClass(name, []string{hClasses[hParent[c]]})
		}
		if err != nil {
			return err
		}
	}
	if _, err := db.DefineClass("Division", nil, oodb.Attr{Name: "city", Domain: "String"}); err != nil {
		return err
	}
	if _, err := db.DefineClass("Company", nil,
		oodb.Attr{Name: "name", Domain: "String"},
		oodb.Attr{Name: "location", Domain: "String"},
		oodb.Attr{Name: "division", Domain: "Division"}); err != nil {
		return err
	}
	if _, err := db.DefineClass("Vehicle", nil,
		oodb.Attr{Name: "vid", Domain: "String"},
		oodb.Attr{Name: "weight", Domain: "Integer"},
		oodb.Attr{Name: "year", Domain: "Integer"},
		oodb.Attr{Name: "manufacturer", Domain: "Company"}); err != nil {
		return err
	}
	for _, sub := range companyClasses[1:] {
		if _, err := db.DefineClass(sub, []string{"Company"}); err != nil {
			return err
		}
	}
	for _, sub := range vehicleClasses[1:] {
		if _, err := db.DefineClass(sub, []string{"Vehicle"}); err != nil {
			return err
		}
	}
	return nil
}

// inBatches runs each(tx, i) for i in [0,n) in transactions of 500.
func inBatches(db *oodb.DB, n int, each func(tx *oodb.Tx, i int) error) error {
	const batch = 500
	for lo := 0; lo < n; lo += batch {
		hi := min(lo+batch, n)
		err := db.Do(func(tx *oodb.Tx) error {
			for i := lo; i < hi; i++ {
				if err := each(tx, i); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// loadWorld writes the model into dbs: H row i and company i go to member
// i % len(dbs), and a vehicle follows its manufacturer, because references
// never cross members. Indexes are built after the load: a class-hierarchy
// index on H0.val and a nested-attribute index on
// Vehicle.manufacturer.location.
func loadWorld(w *world, dbs []*oodb.DB) (*placed, error) {
	p := &placed{vehOID: make([]oodb.OID, nVehicles), coOID: make([]oodb.OID, nCompanies)}
	n := len(dbs)
	insert := func(tx *oodb.Tx, class string, attrs oodb.Attrs) (oodb.OID, error) {
		p.userBytes += valueBytes(attrs)
		return tx.Insert(class, attrs)
	}
	for m, db := range dbs {
		if err := defineWorldSchema(db); err != nil {
			return nil, err
		}
		err := inBatches(db, len(w.hVal), func(tx *oodb.Tx, i int) error {
			if i%n != m {
				return nil
			}
			_, err := insert(tx, hClasses[w.hClass[i]], oodb.Attrs{
				"val": oodb.Int(int64(w.hVal[i])), "tag": oodb.String(hClasses[w.hClass[i]])})
			return err
		})
		if err != nil {
			return nil, err
		}
		err = inBatches(db, nCompanies, func(tx *oodb.Tx, i int) error {
			if i%n != m {
				return nil
			}
			div, err := insert(tx, "Division", oodb.Attrs{"city": oodb.String(city(w.divCity[i]))})
			if err != nil {
				return err
			}
			p.coOID[i], err = insert(tx, companyClasses[w.coClass[i]], oodb.Attrs{
				"name": oodb.String(fmt.Sprintf("Co%d", i)), "location": oodb.String(city(w.coLoc[i])),
				"division": oodb.Ref(div)})
			return err
		})
		if err != nil {
			return nil, err
		}
		err = inBatches(db, nVehicles, func(tx *oodb.Tx, i int) error {
			if w.vehMfr[i]%n != m {
				return nil
			}
			var err error
			p.vehOID[i], err = insert(tx, vehicleClasses[w.vehClass[i]], oodb.Attrs{
				"vid": oodb.String(vid(i)), "weight": oodb.Int(int64(w.vehWeight[i])),
				"year": oodb.Int(int64(w.vehYear[i])), "manufacturer": oodb.Ref(p.coOID[w.vehMfr[i]])})
			return err
		})
		if err != nil {
			return nil, err
		}
		if err := db.CreateIndex("ch_val", "H0", []string{"val"}, true); err != nil {
			return nil, err
		}
		if err := db.CreateIndex("veh_mloc", "Vehicle", []string{"manufacturer", "location"}, true); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func city(i int) string { return fmt.Sprintf("City%d", i) }

// expect answers a generated query from the model and returns the
// fingerprint the database's answer must have.
func (w *world) expect(o *op) uint64 {
	var rows [][]model.Value
	switch o.Kind {
	case kPoint, kQuery, kQuerySnap:
		for i, v := range w.hVal {
			if v == o.Arg {
				rows = append(rows, []model.Value{model.Int(int64(v)), model.String(hClasses[w.hClass[i]])})
			}
		}
	case kRange:
		var vals []int
		for _, v := range w.hVal {
			if v >= o.Arg && v < o.Arg+rangeSpan {
				vals = append(vals, v)
			}
		}
		sort.Ints(vals)
		for _, v := range vals[:min(len(vals), rangeLimit)] {
			rows = append(rows, []model.Value{model.Int(int64(v))})
		}
	case kNested:
		for i, c := range w.vehMfr {
			if w.coLoc[c] == o.Arg {
				rows = append(rows, []model.Value{model.String(vid(i)), model.Int(int64(w.vehWeight[i]))})
			}
		}
	case kAgg:
		var count, sum int64
		for i, v := range w.hVal {
			if inH1(w.hClass[i]) && v != o.Arg {
				count++
				sum += int64(v)
			}
		}
		rows = [][]model.Value{{model.Int(count), model.Int(sum)}}
	default:
		panic("perfbench: the model has no answer for " + kindNames[o.Kind])
	}
	return fingerprint(len(rows), func(i int) []model.Value { return rows[i] }, ordered(o.Kind))
}

// fingerprint hashes a result's values: each row canonically encoded, the
// rows sorted first unless their order is part of the answer. OIDs are left
// out because they differ between layouts by construction.
func fingerprint(n int, row func(i int) []model.Value, ordered bool) uint64 {
	enc := make([][]byte, n)
	for i := range enc {
		var b []byte
		for _, v := range row(i) {
			b = model.AppendValue(b, v)
		}
		enc[i] = b
	}
	if !ordered {
		sort.Slice(enc, func(a, b int) bool { return bytes.Compare(enc[a], enc[b]) < 0 })
	}
	h := fnv.New64a()
	for _, b := range enc {
		_, _ = h.Write(b)
		_, _ = h.Write([]byte{0xff})
	}
	return h.Sum64()
}

// valueBytes is the canonical encoded size of the attribute values: the
// benchmark's definition of "user bytes".
func valueBytes(attrs oodb.Attrs) int64 {
	var n int64
	var buf []byte
	for _, v := range attrs {
		buf = model.AppendValue(buf[:0], v)
		n += int64(len(buf))
	}
	return n
}
