package main

// Recovery-time datapoints: how long a cold open takes as a function of
// the WAL size it must replay (E9's claim, measured as a curve and written
// to a JSON file the repo tracks as BENCH_recovery.json).

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"oodb"
)

type recoveryPoint struct {
	Txns     int     `json:"txns"`
	Objects  int     `json:"objects"`
	Classes  int     `json:"classes"`
	WALBytes int64   `json:"wal_bytes"`
	OpenMS   float64 `json:"open_ms"` // median cold open
	Reps     int     `json:"reps"`
}

type recoveryReport struct {
	Experiment  string          `json:"experiment"`
	Description string          `json:"description"`
	Points      []recoveryPoint `json:"points"`
}

// runRecoveryBench builds databases whose WAL holds progressively more
// committed work spread over several classes (checkpointing disabled so
// nothing is truncated), then measures a plain reopen — scan, physical
// restore, logical replay, directory rebuild — against a fresh copy each
// repetition.
func runRecoveryBench(outPath string) {
	scales := []int{10, 50, 200, 800}
	if *quick {
		scales = []int{10, 50}
	}
	const nClasses = 8
	report := recoveryReport{
		Experiment:  "recovery",
		Description: "cold-open time vs WAL size: scan + torn-page restore + logical replay + directory rebuild",
	}
	for _, txns := range scales {
		src, err := os.MkdirTemp("", "kimbench-recovery")
		check(err)
		db, err := oodb.Open(src, oodb.Options{NoSync: true, CheckpointBytes: 1 << 30})
		check(err)
		names := make([]string, nClasses)
		for c := 0; c < nClasses; c++ {
			names[c] = fmt.Sprintf("P%d", c)
			_, err = db.DefineClass(names[c], nil, oodb.Attr{Name: "n", Domain: "Integer"})
			check(err)
		}
		for i := 0; i < txns; i++ {
			class := names[i%nClasses]
			check(db.Do(func(tx *oodb.Tx) error {
				for j := 0; j < 100; j++ {
					if _, err := tx.Insert(class, oodb.Attrs{"n": oodb.Int(int64(j))}); err != nil {
						return err
					}
				}
				return nil
			}))
		}
		check(db.Engine().Log.Sync())
		st, err := os.Stat(filepath.Join(src, "log.wal"))
		check(err)

		const reps = 5
		times := make([]time.Duration, reps)
		for r := range times {
			dir, err := os.MkdirTemp("", "kimbench-recovery-copy")
			check(err)
			for _, f := range []string{"data.kdb", "log.wal"} {
				data, err := os.ReadFile(filepath.Join(src, f))
				check(err)
				check(os.WriteFile(filepath.Join(dir, f), data, 0o644))
			}
			start := time.Now()
			db2, err := oodb.Open(dir, oodb.Options{})
			check(err)
			times[r] = time.Since(start)
			db2.Close()
			os.RemoveAll(dir)
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		open := times[reps/2]
		db.Close()
		os.RemoveAll(src)

		report.Points = append(report.Points, recoveryPoint{
			Txns:     txns,
			Objects:  txns * 100,
			Classes:  nClasses,
			WALBytes: st.Size(),
			OpenMS:   float64(open.Microseconds()) / 1000,
			Reps:     reps,
		})
		fmt.Printf("recovery: %4d txns, WAL %8d bytes -> open %v\n", txns, st.Size(), open)
	}
	out, err := json.MarshalIndent(report, "", "  ")
	check(err)
	check(os.WriteFile(outPath, append(out, '\n'), 0o644))
	fmt.Printf("wrote %s\n", outPath)
}
