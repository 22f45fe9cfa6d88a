package query

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/obs"
)

// TestWalkAnalyzeGolden pins what EXPLAIN ANALYZE shows of every index
// walk, and what the walk adds to the executor's counters: five access
// shapes (index-eq, an ordered index-range with LIMIT, an index-union,
// index-only rows and an index-agg fold), each run in a locked
// transaction, in a quiet snapshot and in a snapshot whose scope overlay
// holds objects a commit re-keyed. Span names and counters are compared
// byte for byte with testdata/walk_analyze.golden; times and the buffer
// figures are left out. The answers are pinned beside them.
func TestWalkAnalyzeGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/walk_analyze.golden")
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for _, chIndex := range []bool{true, false} {
		w := newRangeWorld(t, chIndex)
		eng := NewEngine(w.db)
		stmts := []string{
			"SELECT tag FROM R WHERE val = 5",
			"SELECT tag FROM R1 WHERE val >= 3 AND val < 9 ORDER BY val LIMIT 5",
			"SELECT val FROM R WHERE val >= 3 AND val < 9 ORDER BY val LIMIT 5",
			"SELECT COUNT(*), SUM(val), MIN(val), MAX(val) FROM R WHERE val != 4",
		}
		if !chIndex {
			// One single-class index per class: the hierarchy's probes are a union.
			stmts = []string{"SELECT tag FROM R WHERE val = 5", "SELECT tag FROM R WHERE val >= 3 AND val < 6"}
		}
		mode := func(name string, tx *core.Tx) {
			for _, src := range stmts {
				fmt.Fprintf(&out, "== %s (%s)\n", src, name)
				goldenAnalyze(t, &out, eng, tx, src)
			}
		}
		tx := w.db.Begin()
		mode("locked", tx)
		tx.Commit()
		snap := w.db.BeginSnapshot()
		mode("quiet snapshot", snap)
		snap.Commit()
		snap = w.db.BeginSnapshot()
		err := w.db.Do(func(tx *core.Tx) error {
			// Re-key a val=5 instance out of every interval and an R1
			// instance into the front of the ordered one.
			for _, o := range w.objs {
				if model.Compare(o.val, model.Int(5)) == 0 && o.class == "R2" {
					if err := tx.Update(o.oid, map[string]model.Value{"val": model.Int(100)}); err != nil {
						return err
					}
					break
				}
			}
			for _, o := range w.objs {
				if model.Compare(o.val, model.Int(12)) == 0 && o.class == "R11" {
					return tx.Update(o.oid, map[string]model.Value{"val": model.Int(3)})
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		mode("snapshot with a live overlay", snap)
		snap.Commit()
	}
	if got := out.String(); got != string(want) {
		t.Errorf("EXPLAIN ANALYZE of the index walks differs from testdata/walk_analyze.golden; got:\n%s", got)
	}
}

var (
	goldenTime   = regexp.MustCompile(` time=\S+`)
	goldenSpanAt = regexp.MustCompile(` \[[^\]]*\]$`)
	goldenMetric = []struct {
		name string
		c    *obs.Counter
	}{
		{"rows_examined", mRowsScanned}, {"rows_matched", mRowsMatched}, {"probes", mIndexProbes},
		{"early_exits", mEarlyExits}, {"folds", mFolds}, {"index_only", mIndexOnly}, {"fallbacks", mFoldFallbacks},
	}
)

// goldenAnalyze writes src's EXPLAIN ANALYZE to out with times and buffer
// figures removed, then what it added to the executor's counters, then its
// answer.
func goldenAnalyze(t *testing.T, out *strings.Builder, eng *Engine, tx *core.Tx, src string) {
	t.Helper()
	before := make([]uint64, len(goldenMetric))
	for i, m := range goldenMetric {
		before[i] = m.c.Value()
	}
	text, err := eng.ExplainAnalyze(tx, src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	var lines []string
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if !strings.HasPrefix(line, "buffer:") {
			lines = append(lines, goldenSpanAt.ReplaceAllString(goldenTime.ReplaceAllString(line, ""), ""))
		}
	}
	out.WriteString(strings.Join(lines, "\n") + "\n")
	out.WriteString("counters:")
	for i, m := range goldenMetric {
		if d := m.c.Value() - before[i]; d != 0 {
			fmt.Fprintf(out, " %s=%d", m.name, d)
		}
	}
	res := runIn(t, tx, eng, src)
	out.WriteString("\nanswer:")
	for _, r := range res.Rows {
		out.WriteByte(' ')
		for j, v := range r.Values {
			if j > 0 {
				out.WriteByte(',')
			}
			out.WriteString(v.String())
		}
	}
	out.WriteString("\n\n")
}
