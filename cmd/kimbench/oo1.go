package main

// OO1 clustering datapoints (E17, written to BENCH_oo1.json): cold-cache
// pointer-chasing traversals over the same seeded part/connection graph in
// three physical layouts — fragmented (as a long-lived database converges
// to), default-compacted (scan order), and composite-clustered (children
// laid next to parents). The generator decorrelates physical order from
// graph locality (internal/bench/oo1.go), so the difference between the
// layouts is exactly what the placement policy buys. A fourth section
// measures heat-ordered placement on the lookup workload it targets: a hot
// subset is fetched repeatedly, the segment is recompacted under
// ClusterHot, and the cold misses of re-reading the hot set are compared.
//
// The traversal fingerprint (visits + order-sensitive hash) is asserted
// identical across all layouts — the benchmark refuses to report a win
// that changed logical content.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"oodb"
	"oodb/internal/bench"
	"oodb/internal/maint"
)

type oo1Layout struct {
	Pages        int     `json:"pages"`
	TraversalMS  float64 `json:"traversal_ms"`  // median of reps, cold pool each rep
	PoolMisses   uint64  `json:"pool_misses"`   // during the traversals of the median rep
	Reordered    int     `json:"reordered"`     // records moved off scan order by the rewrite
	ScanMS       float64 `json:"scan_ms"`       // full-class scan, cold
	HashMatches  bool    `json:"hash_matches"`  // traversal fingerprint equals the fragmented layout's
	VisitMatches bool    `json:"visit_matches"` // visit count equals the fragmented layout's
}

type oo1Report struct {
	Experiment  string `json:"experiment"`
	Description string `json:"description"`
	Parts       int    `json:"parts"`
	Conn        int    `json:"connections_per_part"`
	NoisePer    int    `json:"noise_per_part"`
	Seed        int64  `json:"seed"`
	ColdPool    int    `json:"cold_pool_pages"`
	Reps        int    `json:"reps"`
	Roots       int    `json:"traversal_roots"`
	Visits      int    `json:"traversal_visits"`
	Hash        string `json:"traversal_hash"`

	OccupancyFragmented float64 `json:"occupancy_fragmented"`

	Fragmented oo1Layout `json:"fragmented"`
	Default    oo1Layout `json:"default_compacted"`
	Composite  oo1Layout `json:"composite_clustered"`

	HotSet          int     `json:"hot_set_parts"`
	HotBeforeMS     float64 `json:"hot_lookup_ms_fragmented"`
	HotAfterMS      float64 `json:"hot_lookup_ms_clustered"`
	HotBeforeMisses uint64  `json:"hot_lookup_misses_fragmented"`
	HotAfterMisses  uint64  `json:"hot_lookup_misses_clustered"`
	HotReordered    int     `json:"hot_reordered"`
}

// runOO1Bench builds the graph three times (same seed ⇒ identical graphs,
// pinned by TestOO1Deterministic), compacts each copy under a different
// policy, and measures cold-cache closure traversals on each layout.
func runOO1Bench(outPath string) {
	nParts, reps := 8000, 5
	if *quick {
		nParts, reps = 2000, 3
	}
	const (
		conn     = 3
		noisePer = 4
		seed     = 17
		coldPool = 64
		nRoots   = 4
	)
	roots := make([]int, nRoots)
	for i := range roots {
		roots[i] = i * nParts / nRoots
	}

	// build creates the fragmented graph in a fresh directory and compacts
	// it under the given policy (ClusterNone with compact=false leaves it
	// fragmented). Returns the directory, the graph handle, the pre-compact
	// occupancy, and the rewrite stats.
	build := func(compactIt bool, policy maint.ClusterPolicy) (string, *bench.OO1, float64, int, int) {
		dir, err := os.MkdirTemp("", "kimbench-oo1")
		check(err)
		db, err := oodb.Open(dir, oodb.Options{NoSync: true, PoolPages: 8192, CheckpointBytes: 1 << 30})
		check(err)
		// The experiment compares layouts it makes itself: stop the
		// database's manager from compacting the fragmented one unasked.
		mnt := db.Maintenance(maint.Options{Clustering: policy})
		mnt.Stop()
		g, err := bench.BuildOO1(db, nParts, conn, noisePer, seed)
		check(err)
		cls, err := db.ClassByName("Part")
		check(err)
		cm, err := db.Composites()
		check(err)
		check(cm.DeclareComposite(cls.ID, "to", false))
		info, err := db.Engine().SegmentInfo(cls.ID)
		check(err)
		occ := info.Occupancy
		pages, reordered := info.Pages, 0
		if compactIt {
			res, err := mnt.CompactClass(cls.ID)
			check(err)
			pages, reordered = res.PagesAfter, res.Reordered
		}
		check(db.Checkpoint())
		check(db.Close())
		return dir, g, occ, pages, reordered
	}

	// measure reopens the directory with a tiny pool (cold cache) per rep
	// and runs the closure traversals, returning the median wall time, the
	// pool misses of the median rep, one cold full-class scan time, and the
	// traversal fingerprint.
	measure := func(dir string, g *bench.OO1) (float64, uint64, float64, int, uint64) {
		times := make([]time.Duration, reps)
		missesPer := make([]uint64, reps)
		var visits int
		var hash uint64
		for rep := 0; rep < reps; rep++ {
			db, err := oodb.Open(dir, oodb.Options{NoSync: true, PoolPages: coldPool})
			check(err)
			db.Maintenance(maint.Options{}).Stop() // measure the layout as built
			_, m0 := db.Engine().Store.PoolStats()
			start := time.Now()
			visits, hash = 0, 0
			for _, root := range roots {
				v, h, err := g.Closure(db, root)
				check(err)
				visits += v
				hash = hash*1099511628211 ^ h
			}
			times[rep] = time.Since(start)
			_, m1 := db.Engine().Store.PoolStats()
			missesPer[rep] = m1 - m0
			check(db.Close())
		}
		// One cold scan for the latency the compactor already optimizes —
		// context for how much of the win is density vs placement.
		db, err := oodb.Open(dir, oodb.Options{NoSync: true, PoolPages: coldPool})
		check(err)
		db.Maintenance(maint.Options{}).Stop()
		s0 := time.Now()
		res, err := db.Query(`SELECT pid FROM Part WHERE pid >= 0`)
		check(err)
		if len(res.Rows) != nParts {
			check(fmt.Errorf("scan saw %d rows, want %d", len(res.Rows), nParts))
		}
		scanMS := float64(time.Since(s0).Microseconds()) / 1000
		check(db.Close())
		// Median by time; report that rep's miss count.
		order := make([]int, reps)
		for i := range order {
			order[i] = i
		}
		for i := 1; i < reps; i++ {
			for j := i; j > 0 && times[order[j]] < times[order[j-1]]; j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
		med := order[reps/2]
		return float64(times[med].Microseconds()) / 1000, missesPer[med], scanMS, visits, hash
	}

	fmt.Printf("oo1: building 3x %d parts (conn %d, noise %d, seed %d)...\n", nParts, conn, noisePer, seed)
	fragDir, fragG, occ, fragPages, _ := build(false, maint.ClusterNone)
	defer os.RemoveAll(fragDir)
	defDir, defG, _, defPages, defReord := build(true, maint.ClusterNone)
	defer os.RemoveAll(defDir)
	compDir, compG, _, compPages, compReord := build(true, maint.ClusterComposite)
	defer os.RemoveAll(compDir)

	fragMS, fragMiss, fragScan, visits, hash := measure(fragDir, fragG)
	defMS, defMiss, defScan, defVisits, defHash := measure(defDir, defG)
	compMS, compMiss, compScan, compVisits, compHash := measure(compDir, compG)
	if defVisits != visits || compVisits != visits || defHash != hash || compHash != hash {
		check(fmt.Errorf("traversal fingerprint diverged across layouts: frag(%d,%x) default(%d,%x) composite(%d,%x)",
			visits, hash, defVisits, defHash, compVisits, compHash))
	}

	// Heat-ordered placement on its target workload: repeated lookups of a
	// hot 10% subset, then a ClusterHot recompaction of the fragmented
	// directory, then cold re-reads of the same subset.
	hotSet := nParts / 10
	hotR := rand.New(rand.NewSource(seed + 1))
	hotPids := hotR.Perm(nParts)[:hotSet]
	lookupCold := func(dir string, g *bench.OO1) (float64, uint64) {
		db, err := oodb.Open(dir, oodb.Options{NoSync: true, PoolPages: coldPool})
		check(err)
		defer db.Close()
		db.Maintenance(maint.Options{}).Stop()
		_, m0 := db.Engine().Store.PoolStats()
		start := time.Now()
		for _, pid := range hotPids {
			_, err := db.Fetch(g.Parts[pid])
			check(err)
		}
		elapsed := time.Since(start)
		_, m1 := db.Engine().Store.PoolStats()
		return float64(elapsed.Microseconds()) / 1000, m1 - m0
	}
	hotBeforeMS, hotBeforeMiss := lookupCold(fragDir, fragG)
	hotReordered := 0
	{
		db, err := oodb.Open(fragDir, oodb.Options{NoSync: true, PoolPages: 8192})
		check(err)
		mnt := db.Maintenance(maint.Options{Clustering: maint.ClusterHot})
		mnt.Stop() // the heat-ordered rewrite below is the only one
		cls, err := db.ClassByName("Part")
		check(err)
		for pass := 0; pass < 3; pass++ { // accumulate heat on the hot set
			for _, pid := range hotPids {
				_, err := db.Fetch(fragG.Parts[pid])
				check(err)
			}
		}
		res, err := mnt.CompactClass(cls.ID)
		check(err)
		hotReordered = res.Reordered
		check(db.Checkpoint())
		check(db.Close())
	}
	hotAfterMS, hotAfterMiss := lookupCold(fragDir, fragG)

	report := oo1Report{
		Experiment:  "oo1-clustering",
		Description: "cold-cache OO1 closure traversals on fragmented vs default-compacted vs composite-clustered layouts; heat-ordered placement on a hot-set lookup workload",
		Parts:       nParts, Conn: conn, NoisePer: noisePer, Seed: seed,
		ColdPool: coldPool, Reps: reps, Roots: nRoots,
		Visits: visits, Hash: fmt.Sprintf("%016x", hash),
		OccupancyFragmented: occ,
		Fragmented: oo1Layout{Pages: fragPages, TraversalMS: fragMS, PoolMisses: fragMiss,
			ScanMS: fragScan, HashMatches: true, VisitMatches: true},
		Default: oo1Layout{Pages: defPages, TraversalMS: defMS, PoolMisses: defMiss,
			Reordered: defReord, ScanMS: defScan, HashMatches: defHash == hash, VisitMatches: defVisits == visits},
		Composite: oo1Layout{Pages: compPages, TraversalMS: compMS, PoolMisses: compMiss,
			Reordered: compReord, ScanMS: compScan, HashMatches: compHash == hash, VisitMatches: compVisits == visits},
		HotSet:      hotSet,
		HotBeforeMS: hotBeforeMS, HotAfterMS: hotAfterMS,
		HotBeforeMisses: hotBeforeMiss, HotAfterMisses: hotAfterMiss,
		HotReordered: hotReordered,
	}
	out, err := json.MarshalIndent(report, "", "  ")
	check(err)
	check(os.WriteFile(outPath, append(out, '\n'), 0o644))
	fmt.Printf("oo1 traversal (%d visits, %d-page pool): fragmented %.2fms (%d misses) | default %.2fms (%d misses) | composite %.2fms (%d misses)\n",
		visits, coldPool, fragMS, fragMiss, defMS, defMiss, compMS, compMiss)
	fmt.Printf("oo1 hot lookups (%d parts): fragmented %.2fms (%d misses) -> hot-clustered %.2fms (%d misses)\n",
		hotSet, hotBeforeMS, hotBeforeMiss, hotAfterMS, hotAfterMiss)
	fmt.Printf("wrote %s\n", outPath)
}
