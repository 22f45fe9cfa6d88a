package query

import (
	"fmt"
	"strings"
	"time"

	"oodb/internal/core"
	"oodb/internal/obs"
)

// ExplainAnalyze parses, plans and EXECUTES src inside tx, returning the
// plan annotated with per-stage execution statistics: per-class rows
// scanned and matched, index probe counts, parallel fan-out width, sort /
// aggregate / projection timings, and the buffer pool hits and misses the
// query incurred.
//
// The buffer figures come from the process-wide pool counters sampled
// before and after execution, so concurrent activity on other connections
// can inflate them; on an otherwise quiet database they are exact.
func (e *Engine) ExplainAnalyze(tx *core.Tx, src string) (string, error) {
	q, err := Parse(src)
	if err != nil {
		return "", err
	}
	hits0, misses0 := e.db.Store.PoolStats()
	span := obs.StartSpan("query")
	var t0 time.Time // the executed plan's start: vet runs just before execute
	p, res, err := e.run(tx, q, func(*Plan) error { t0 = time.Now(); return nil }, span)
	elapsed := time.Since(t0)
	span.End()
	if err != nil {
		return "", err
	}
	hits1, misses1 := e.db.Store.PoolStats()
	dh, dm := hits1-hits0, misses1-misses0

	var b strings.Builder
	b.WriteString(p.String())
	b.WriteByte('\n')
	if p.HasEst {
		// Estimated next to actual: the at-a-glance check on whether the
		// maintenance statistics still describe the data.
		fmt.Fprintf(&b, "rows=%d est=%.1f time=%s\n", len(res.Rows), p.EstRows, elapsed.Round(time.Microsecond))
	} else {
		fmt.Fprintf(&b, "rows=%d time=%s\n", len(res.Rows), elapsed.Round(time.Microsecond))
	}
	var ratio float64
	if dh+dm > 0 {
		ratio = float64(dh) / float64(dh+dm)
	}
	fmt.Fprintf(&b, "buffer: hits=%d misses=%d hit_ratio=%.2f\n", dh, dm, ratio)
	b.WriteString(span.Render())
	return b.String(), nil
}
