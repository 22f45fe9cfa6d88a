package bench

// OO1-style navigation workload for the clustering experiments (E17). The
// paper's §5 endorses the OO1 shape ([RUBE87]) for OODB measurement; this
// generator builds the part/connection graph so that *logical* locality
// (OO1's 90%-nearby connection rule) is deliberately decorrelated from
// *physical* placement: parts are inserted in seeded-shuffled pid order,
// interleaved with padded same-class noise objects that are then deleted.
// The result is a ~90%-dead, shuffled segment — the worst case a long-lived
// database converges to — on which composite clustering
// (composite.Recluster, then compaction) has something real to win.
//
// Everything is driven by one seeded rand stream, so a given (nParts, conn,
// noisePer, seed) tuple reproduces the identical graph, byte for byte —
// pinned by the determinism test and relied on by perfbench, which builds
// the graph afresh in every run it compares. BenchmarkE17_OO1 builds it
// once and compares copies of it in three layouts.
//
// Build order is load-bearing:
//
//  1. insert real parts (small) interleaved with noisePer padded noise
//     parts each, in shuffled pid order — physical order ⊥ pid locality;
//  2. delete every noise part — pages become mostly dead, leaving free
//     space in place;
//  3. wire connections with in-place updates — the heap only relocates an
//     update when its page is full, and step 2 guaranteed room, so wiring
//     does not disturb the shuffled layout.

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"oodb"
)

// OO1 is a built OO1-style parts graph.
type OO1 struct {
	N        int        // real parts, pids 0..N-1
	Conn     int        // outgoing connections per part
	NoisePer int        // noise objects interleaved per real part (deleted)
	Parts    []oodb.OID // pid-indexed
}

// BuildOO1 builds the fragmented parts graph described in the package
// comment. Connections follow OO1 locality (connTarget: 90% within the 1%
// nearest pids, 10% uniform).
func BuildOO1(db *oodb.DB, nParts, conn, noisePer int, seed int64) (*OO1, error) {
	if _, err := db.DefineClass("Part", nil,
		oodb.Attr{Name: "pid", Domain: "Integer"},
		oodb.Attr{Name: "x", Domain: "Integer"},
		oodb.Attr{Name: "y", Domain: "Integer"},
		oodb.Attr{Name: "ptype", Domain: "String"},
		oodb.Attr{Name: "pad", Domain: "String"},
		oodb.Attr{Name: "to", Domain: "Part", SetValued: true},
	); err != nil {
		return nil, err
	}
	g := &OO1{N: nParts, Conn: conn, NoisePer: noisePer, Parts: make([]oodb.OID, nParts)}
	r := rand.New(rand.NewSource(seed))
	order := r.Perm(nParts)
	pad := strings.Repeat("n", 220)
	noise := make([]oodb.OID, 0, nParts*noisePer)
	const batch = 500
	for lo := 0; lo < nParts; lo += batch {
		hi := lo + batch
		if hi > nParts {
			hi = nParts
		}
		err := db.Do(func(tx *oodb.Tx) error {
			for k := lo; k < hi; k++ {
				pid := order[k]
				oid, err := tx.Insert("Part", oodb.Attrs{
					"pid":   oodb.Int(int64(pid)),
					"x":     oodb.Int(int64(r.Intn(100000))),
					"y":     oodb.Int(int64(r.Intn(100000))),
					"ptype": oodb.String(fmt.Sprintf("type%d", r.Intn(10))),
					"pad":   oodb.String(""),
				})
				if err != nil {
					return err
				}
				g.Parts[pid] = oid
				for j := 0; j < noisePer; j++ {
					noid, err := tx.Insert("Part", oodb.Attrs{
						"pid":   oodb.Int(-1),
						"x":     oodb.Int(0),
						"y":     oodb.Int(0),
						"ptype": oodb.String("noise"),
						"pad":   oodb.String(pad),
					})
					if err != nil {
						return err
					}
					noise = append(noise, noid)
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	for lo := 0; lo < len(noise); lo += batch {
		hi := lo + batch
		if hi > len(noise) {
			hi = len(noise)
		}
		err := db.Do(func(tx *oodb.Tx) error {
			for _, oid := range noise[lo:hi] {
				if err := tx.Delete(oid); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	for lo := 0; lo < nParts; lo += batch {
		hi := lo + batch
		if hi > nParts {
			hi = nParts
		}
		err := db.Do(func(tx *oodb.Tx) error {
			for i := lo; i < hi; i++ {
				members := make([]oodb.Value, 0, conn)
				for c := 0; c < conn; c++ {
					members = append(members, oodb.Ref(g.Parts[connTarget(r, i, nParts)]))
				}
				if err := tx.Update(g.Parts[i], oodb.Attrs{"to": oodb.SetOf(members...)}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Closure runs a depth-first closure traversal from the part with pid
// rootPid, following "to" connections and visiting each part once, with
// one database fetch per visit (the pointer-chasing access pattern
// clustering exists to serve). Returns the number of parts visited and an
// order-sensitive FNV-1a hash of the visited pid sequence — the traversal
// fingerprint the determinism test and the differential suite compare
// across layouts.
func (g *OO1) Closure(db *oodb.DB, rootPid int) (int, uint64, error) {
	h := fnv.New64a()
	var buf [8]byte
	seen := make(map[oodb.OID]bool, g.N)
	stack := []oodb.OID{g.Parts[rootPid]}
	visited := 0
	for len(stack) > 0 {
		oid := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[oid] {
			continue
		}
		seen[oid] = true
		obj, err := db.Fetch(oid)
		if err != nil {
			return visited, 0, err
		}
		visited++
		pidV, err := db.Get(obj, "pid")
		if err != nil {
			return visited, 0, err
		}
		pid, _ := pidV.AsInt()
		putUint64(&buf, uint64(pid))
		_, _ = h.Write(buf[:])
		to, err := db.Get(obj, "to")
		if err != nil {
			return visited, 0, err
		}
		members, _ := to.AsSet()
		// Push in reverse so pops follow set order.
		for i := len(members) - 1; i >= 0; i-- {
			if ref, ok := members[i].AsRef(); ok && !seen[ref] {
				stack = append(stack, ref)
			}
		}
	}
	return visited, h.Sum64(), nil
}

// GraphHash fingerprints the whole graph's logical content — every part's
// pid, x, y, ptype and connection-target pid list, in pid order. Two
// databases with equal GraphHash hold the same graph regardless of
// physical layout; the determinism test pins same-seed equality and the
// differential suite pins invariance across clustered rewrites.
func (g *OO1) GraphHash(db *oodb.DB) (uint64, error) {
	pidOf := make(map[oodb.OID]int, g.N)
	for pid, oid := range g.Parts {
		pidOf[oid] = pid
	}
	h := fnv.New64a()
	var buf [8]byte
	for pid := 0; pid < g.N; pid++ {
		obj, err := db.Fetch(g.Parts[pid])
		if err != nil {
			return 0, err
		}
		for _, attr := range []string{"pid", "x", "y"} {
			v, err := db.Get(obj, attr)
			if err != nil {
				return 0, err
			}
			n, _ := v.AsInt()
			putUint64(&buf, uint64(n))
			_, _ = h.Write(buf[:])
		}
		tv, err := db.Get(obj, "ptype")
		if err != nil {
			return 0, err
		}
		s, _ := tv.AsString()
		_, _ = h.Write([]byte(s))
		to, err := db.Get(obj, "to")
		if err != nil {
			return 0, err
		}
		members, _ := to.AsSet()
		for _, m := range members {
			ref, ok := m.AsRef()
			if !ok {
				continue
			}
			putUint64(&buf, uint64(pidOf[ref]))
			_, _ = h.Write(buf[:])
		}
	}
	return h.Sum64(), nil
}

func putUint64(buf *[8]byte, v uint64) {
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
}
