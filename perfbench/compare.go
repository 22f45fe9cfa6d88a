package main

import (
	"fmt"
	"os"
)

// verdict of one (metric, workload) row when B is compared against A.
type verdict string

const (
	better     verdict = "better"
	within     verdict = "within bound"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge compares B's value with A's under the metric's direction and bound.
// worsening is how much worse B is as a share of A (negative when better).
// A row whose sub-window spread on either side is wider than the bound is
// unresolved: the run cannot tell a change of that size from its own noise.
func judge(a, b float64, higherIsBetter bool, bound float64, spreadA, spreadB float64) (verdict, float64) {
	worsening := (b - a) / a
	if higherIsBetter {
		worsening = -worsening
	}
	switch {
	case spreadA > bound || spreadB > bound:
		return unresolved, worsening
	case worsening > bound:
		return worse, worsening
	case worsening < -bound:
		return better, worsening
	default:
		return within, worsening
	}
}

// runCompare prints one row per (metric, workload) pair of the end-to-end
// metrics and returns the exit status: 1 if any row is worse, 2 on bad input.
func runCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -compare a.json b.json")
		return 2
	}
	bf, err := readBenchmarkFile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	ea, err := readEnvelope(args[0])
	if err == nil {
		var eb *envelope
		if eb, err = readEnvelope(args[1]); err == nil {
			return compareEnvelopes(bf, ea, eb)
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 2
}

func compareEnvelopes(bf *benchmarkFile, ea, eb *envelope) int {
	byName := map[string]*result{}
	for _, w := range eb.Workloads {
		byName[w.Name] = w
	}
	status := 0
	fmt.Printf("%-14s %-10s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worsening", "bound", "verdict")
	for _, wa := range ea.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			continue
		}
		for _, m := range bf.EndToEnd {
			a, okA := wa.Metrics[m.Name]
			b, okB := wb.Metrics[m.Name]
			if !okA || !okB || a.Value == 0 {
				continue
			}
			v, worsening := judge(a.Value, b.Value, m.Better == "higher", m.Bound,
				spread(wa.Samples[m.Name]), spread(wb.Samples[m.Name]))
			if v == worse {
				status = 1
			}
			fmt.Printf("%-14s %-10s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n",
				wa.Name, m.Name, a.Value, b.Value, worsening*100, m.Bound*100, v)
		}
	}
	return status
}
