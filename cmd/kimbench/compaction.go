package main

// Compaction datapoints: how much scan latency an online segment rewrite
// recovers on a fragmented heap (DESIGN §11, written to a JSON file the
// repo tracks as BENCH_compaction.json). The workload inserts padded
// objects, deletes most of them — leaving pages mostly dead but still
// chained into the scan path — and measures a full class scan before and
// after the maintenance manager compacts the segment.

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"oodb"
	"oodb/internal/maint"
)

type compactionReport struct {
	Experiment   string  `json:"experiment"`
	Description  string  `json:"description"`
	Objects      int     `json:"objects_inserted"`
	Deleted      int     `json:"objects_deleted"`
	Survivors    int     `json:"objects_surviving"`
	PagesBefore  int     `json:"pages_before"`
	PagesAfter   int     `json:"pages_after"`
	ScanMSBefore float64 `json:"scan_ms_before"` // median of reps
	ScanMSAfter  float64 `json:"scan_ms_after"`
	Reps         int     `json:"reps"`
}

// runCompactionBench fragments a segment, compacts it, and reports the
// measured scan-latency change alongside the pages recovered.
func runCompactionBench(outPath string) {
	objects, reps := 20000, 7
	if *quick {
		objects, reps = 4000, 5
	}
	dir, err := os.MkdirTemp("", "kimbench-compaction")
	check(err)
	defer os.RemoveAll(dir)
	db, err := oodb.Open(dir, oodb.Options{NoSync: true, CheckpointBytes: 1 << 30})
	check(err)
	defer db.Close()
	// The before-scan needs the dead space: the database's manager would
	// compact it unasked.
	mnt := db.Maintenance(maint.Options{})
	mnt.Stop()
	_, err = db.DefineClass("P", nil,
		oodb.Attr{Name: "n", Domain: "Integer"},
		oodb.Attr{Name: "pad", Domain: "String"})
	check(err)

	// Padded inserts spread the class over many pages; deleting 9 in 10
	// leaves every page nearly empty but still on the scan path.
	pad := strings.Repeat("x", 200)
	oids := make([]oodb.OID, objects)
	for lo := 0; lo < objects; lo += 500 {
		hi := lo + 500
		if hi > objects {
			hi = objects
		}
		check(db.Do(func(tx *oodb.Tx) error {
			for i := lo; i < hi; i++ {
				oid, err := tx.Insert("P", oodb.Attrs{"n": oodb.Int(int64(i)), "pad": oodb.String(pad)})
				if err != nil {
					return err
				}
				oids[i] = oid
			}
			return nil
		}))
	}
	deleted := 0
	for lo := 0; lo < objects; lo += 500 {
		hi := lo + 500
		if hi > objects {
			hi = objects
		}
		check(db.Do(func(tx *oodb.Tx) error {
			for i := lo; i < hi; i++ {
				if i%10 == 0 {
					continue // survivor
				}
				if err := tx.Delete(oids[i]); err != nil {
					return err
				}
				deleted++
			}
			return nil
		}))
	}

	cl, err := db.ClassByName("P")
	check(err)
	scanMS := func() float64 {
		best := make([]time.Duration, reps)
		for r := range best {
			start := time.Now()
			res, err := db.Query(`SELECT * FROM P WHERE n >= 0`)
			check(err)
			if len(res.Rows) != objects-deleted {
				check(fmt.Errorf("scan saw %d rows, want %d", len(res.Rows), objects-deleted))
			}
			best[r] = time.Since(start)
		}
		return medianMS(best)
	}

	before := scanMS()

	res, err := mnt.CompactClass(cl.ID)
	check(err)
	check(db.Checkpoint())
	after := scanMS()

	report := compactionReport{
		Experiment:   "compaction",
		Description:  "full-class scan latency before/after online segment compaction of a 90%-dead heap",
		Objects:      objects,
		Deleted:      deleted,
		Survivors:    objects - deleted,
		PagesBefore:  res.PagesBefore,
		PagesAfter:   res.PagesAfter,
		ScanMSBefore: before,
		ScanMSAfter:  after,
		Reps:         reps,
	}
	out, err := json.MarshalIndent(report, "", "  ")
	check(err)
	check(os.WriteFile(outPath, append(out, '\n'), 0o644))
	fmt.Printf("compaction: %d pages -> %d pages, scan %.2fms -> %.2fms\n",
		res.PagesBefore, res.PagesAfter, before, after)
	fmt.Printf("wrote %s\n", outPath)
}

func medianMS(ds []time.Duration) float64 {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j] < ds[j-1]; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
	return float64(ds[len(ds)/2].Microseconds()) / 1000
}
