// Command perfbench is kimdb's benchmark: five named workloads across the
// three front doors (the embedded API, kimsrv over loopback TCP, a shard
// router over two members), end-to-end metrics with bounds fixed in
// BENCHMARK.json, and a per-layer ledger from a second, traced pass. See
// README.md beside this file.
//
// The driver's contract is
//
//	<command> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and the last line of standard output is one JSON object with the run's
// correct/attempted/failed counts and its metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload (default: all five)")
		seed     = flag.Int64("seed", 1, "seed of every generator")
		seconds  = flag.Float64("seconds", 15, "length of the measured window")
		warmup   = flag.Float64("warmup", 1.5, "length of the warm-up before it")
		trace    = flag.Int("trace", -1, "0: end-to-end pass, 1: layer pass, default: both")
		out      = flag.String("out", "perfbench/out", "directory for result.json, traces and scratch databases")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		os.Exit(runCompare(flag.Args()))
	}
	if err := run(*workload, *seed, *seconds, *warmup, *trace, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds, warmup float64, trace int, out string) error {
	defs := workloads
	if workload != "" {
		def := workloadByName(workload)
		if def == nil {
			return fmt.Errorf("unknown workload %q", workload)
		}
		defs = []workloadDef{*def}
	}
	cfg := &config{
		seed:    seed,
		window:  time.Duration(seconds * float64(time.Second)),
		warmup:  time.Duration(warmup * float64(time.Second)),
		clients: min(maxClients, runtime.NumCPU()),
		outDir:  out,
	}
	switch trace {
	case 0:
		cfg.passes = []bool{false}
	case 1:
		cfg.passes = []bool{true}
	case -1:
		cfg.passes = []bool{false, true}
	default:
		return fmt.Errorf("-trace is 0 or 1, not %d", trace)
	}
	if cfg.window < subWindows*time.Millisecond {
		return fmt.Errorf("-seconds %v is too short to cut into %d sub-windows", seconds, subWindows)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}

	env := envelope{Env: newEnvBlock(cfg)}
	for i := range defs {
		res, err := runWorkload(&defs[i], cfg)
		if err != nil {
			return err
		}
		env.Workloads = append(env.Workloads, res)
		printResult(res)
	}
	if err := env.validate(cfg.passes); err != nil {
		return fmt.Errorf("result envelope: %w", err)
	}
	if err := env.write(out); err != nil {
		return err
	}
	line, correct := env.lastLine(trace)
	fmt.Println(line)
	if !correct {
		return fmt.Errorf("an oracle failed; see the errors in %s/result.json", out)
	}
	return nil
}

// envBlock records where and how the numbers were produced.
type envBlock struct {
	Hostname      string  `json:"hostname"`
	NProc         int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	GitCommit     string  `json:"git_commit"`
	Seed          int64   `json:"seed"`
	WindowSeconds float64 `json:"window_seconds"`
	WarmupSeconds float64 `json:"warmup_seconds"`
	Clients       int     `json:"clients"`
	LoadShape     string  `json:"load_shape"`
	FlushPolicy   string  `json:"flush_policy"`
}

func newEnvBlock(cfg *config) envBlock {
	host, _ := os.Hostname()
	commit := "unknown" // the driver's checkout is not a git repository
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	return envBlock{
		Hostname: host, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitCommit: commit, Seed: cfg.seed,
		WindowSeconds: cfg.window.Seconds(), WarmupSeconds: cfg.warmup.Seconds(), Clients: cfg.clients,
		LoadShape:   "closed loop: each client sends its next operation when the previous one returned",
		FlushPolicy: "fixed per workload, see workloads[].flush_policy; no page-cache tricks, latencies are the sandbox's",
	}
}

// printResult echoes one workload as `workload metric value unit` lines.
func printResult(res *result) {
	for _, group := range []map[string]metricValue{res.Metrics, res.Layers} {
		names := make([]string, 0, len(group))
		for name := range group {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("%-14s %-28s %14.4f %s\n", res.Name, name, group[name].Value, group[name].Unit)
		}
	}
	fmt.Printf("%-14s %-28s %14d %s\n", res.Name, "attempted", res.Attempted, "op")
	fmt.Printf("%-14s %-28s %14d %s\n", res.Name, "failed", res.Failed, "op")
	for _, e := range res.Errors {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", res.Name, e)
	}
}

// lastLine is the driver's result line. With one workload selected its
// metrics are that workload's: the end-to-end ones for --trace 0, the layer
// ones for --trace 1. A run of the whole suite has no single metric set; its
// line carries the totals and, as every summary of this benchmark does, no
// performance claim.
func (e *envelope) lastLine(trace int) (string, bool) {
	type line struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	l := line{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range e.Workloads {
		l.Correct = l.Correct && w.Correct
		l.Attempted += w.Attempted
		l.Failed += w.Failed
	}
	if len(e.Workloads) == 1 && trace >= 0 {
		l.Metrics = e.Workloads[0].Metrics
		if trace == 1 {
			l.Metrics = e.Workloads[0].Layers
		}
		b, _ := json.Marshal(l)
		return string(b), l.Correct
	}
	b, _ := json.Marshal(struct {
		line
		Claim *string `json:"claim"`
	}{line: l})
	return string(b), l.Correct
}
