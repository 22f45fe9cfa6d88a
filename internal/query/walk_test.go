package query

import (
	"fmt"
	"strings"
	"testing"

	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/obs"
)

// TestCoveredReadCommitBeforeRecheck lands a commit between a covered
// read and its post-read overlay check (the afterRead seam), under a
// snapshot whose overlay was empty when the read began. The commit re-keys
// one answer row out of the interval and an outsider into it. The walk
// must notice on the post-read check and give up (fallback_snapshot_overlay
// in the span), and the ordinary path must answer as of the snapshot: what
// the same statement answered under S locks before the commit.
func TestCoveredReadCommitBeforeRecheck(t *testing.T) {
	for _, tc := range []struct{ src, span string }{
		{"SELECT n FROM P WHERE n >= 100 AND n < 200 ORDER BY n LIMIT 6", "index-only p_n"},
		{"SELECT COUNT(*), SUM(n), MIN(n), MAX(n) FROM P WHERE n >= 100 AND n < 200", "index-agg p_n"},
	} {
		t.Run(tc.span, func(t *testing.T) {
			// Values are unique, so the answers are compared OID for OID.
			db, eng, _ := selDB(t, 600, 600)
			if p := mustPlan(t, eng, tc.src); !strings.Contains(p.String(), "access="+strings.Replace(tc.span, " ", "(", 1)+")") {
				t.Fatalf("plan %s is not %s", p, tc.span)
			}
			oidOf := func(n int) model.OID {
				return oidsOf(runLocked(t, db, eng, fmt.Sprintf("SELECT n FROM P WHERE n = %d", n)))[0]
			}
			out, in := oidOf(100), oidOf(300)
			want := runLocked(t, db, eng, tc.src)

			snap := db.BeginSnapshot()
			defer snap.Commit()
			fired := 0
			afterRead = func() {
				if fired++; fired > 1 {
					return
				}
				err := db.Do(func(tx *core.Tx) error {
					if err := tx.Update(out, map[string]model.Value{"n": model.Int(5000)}); err != nil {
						return err
					}
					return tx.Update(in, map[string]model.Value{"n": model.Int(150)})
				})
				if err != nil {
					t.Error(err)
				}
			}
			defer func() { afterRead = nil }()
			fallbacks := mFoldFallbacks.Value()
			span := obs.StartSpan("query")
			got, err := eng.execute(snap, mustPlan(t, eng, tc.src), span)
			span.End()
			if err != nil {
				t.Fatal(err)
			}
			if fired == 0 {
				t.Fatal("the seam never ran: the statement was not read from the index")
			}
			analyze := span.Render()
			if !strings.Contains(analyze, tc.span+" fallback_snapshot_overlay=1") || mFoldFallbacks.Value() != fallbacks+1 {
				t.Errorf("the covered read did not give up on the post-read check:\n%s", analyze)
			}
			if fmt.Sprint(oidsOf(got), rowValues(got)) != fmt.Sprint(oidsOf(want), rowValues(want)) {
				t.Errorf("snapshot answer %v %v, under locks before the commit %v %v\n%s",
					oidsOf(got), rowValues(got), oidsOf(want), rowValues(want), analyze)
			}
			if now := runLocked(t, db, eng, tc.src); fmt.Sprint(rowValues(now)) == fmt.Sprint(rowValues(want)) {
				t.Errorf("the commit did not change the current answer %v", rowValues(now))
			}
		})
	}
}

// rowValues returns every row's values.
func rowValues(res *Result) [][]model.Value {
	out := make([][]model.Value, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r.Values
	}
	return out
}
