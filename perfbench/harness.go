package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"oodb/internal/obs"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	window  time.Duration // the measured window
	warmup  time.Duration
	clients int
	passes  []bool // false = end-to-end pass, true = layer pass
	outDir  string
	scratch []string // set-up directories, removed when the workload is done
}

// sample is one completed operation of the measured window.
type sample struct {
	at     time.Duration // completion time since the window opened
	lat    time.Duration
	kind   opKind
	failed bool
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's entry in the envelope.
type result struct {
	Name           string                 `json:"name"`
	Why            string                 `json:"why"`
	FlushPolicy    string                 `json:"flush_policy"`
	Metrics        map[string]metricValue `json:"metrics"`
	Samples        map[string][]float64   `json:"samples"`
	SampleCount    int                    `json:"sample_count"`
	TailPercentile float64                `json:"tail_percentile"`
	Attempted      int64                  `json:"attempted"`
	Failed         int64                  `json:"failed"`
	Correct        bool                   `json:"correct"`
	Layers         map[string]metricValue `json:"layers"`
	TraceOverhead  float64                `json:"trace_overhead"`
	Kinds          map[string]kindStats   `json:"kinds"`
	Errors         []string               `json:"errors,omitempty"`
}

// kindStats is the untraced window's latency of one operation kind: the
// per-kind view that lets wire.mixed be set against embed.query kind by kind.
type kindStats struct {
	Count int     `json:"count"`
	P50US float64 `json:"p50_us"`
}

// driven is what one drive of an instance produced.
type driven struct {
	samples [][]sample // per client
	errs    []string   // the first few operation errors, for the report
}

// drive runs the closed loop: every client takes the next operation of its
// seeded stream, executes it, and takes the next only when it returned. Operations
// that complete inside [warm, warm+window) are the measured ones.
func drive(in *instance, streams []*stream, warm, window time.Duration, tracers []*tracer) driven {
	out := driven{samples: make([][]sample, len(in.clients))}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := range in.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn, order := in.clients[c], streams[c]
			var t *tracer
			if tracers != nil {
				t = tracers[c]
			}
			var got []sample
			for {
				o := &in.ops[order.next()]
				t.nextOp()
				t0 := time.Now()
				err := fn(o, t)
				end := time.Now()
				at := end.Sub(start)
				if at >= warm+window {
					break
				}
				if at >= warm {
					got = append(got, sample{at: at - warm, lat: end.Sub(t0), kind: o.Kind, failed: err != nil})
				}
				if err != nil {
					mu.Lock()
					if len(out.errs) < 5 {
						out.errs = append(out.errs, err.Error())
					}
					mu.Unlock()
				}
			}
			out.samples[c] = got
		}(c)
	}
	wg.Wait()
	return out
}

// windowStats are the client-observed numbers of one measured window.
type windowStats struct {
	attempted, failed int64
	opsPerS           []float64 // per sub-window
	p50US             []float64 // per sub-window
	p99US             []float64 // per sub-window, at the sub-window's own tail percentile
	tailUS            float64   // whole window, at tailQ
	tailQ             float64
	okCount           int
	kinds             map[string]kindStats
}

func analyze(d driven, window time.Duration) windowStats {
	var st windowStats
	sub := window / subWindows
	lat := make([][]float64, subWindows)
	byKind := map[opKind][]float64{}
	var all []float64
	for _, cs := range d.samples {
		for _, s := range cs {
			st.attempted++
			if s.failed {
				st.failed++
				continue
			}
			w := min(int(s.at/sub), subWindows-1)
			us := float64(s.lat) / 1e3
			lat[w] = append(lat[w], us)
			all = append(all, us)
			byKind[s.kind] = append(byKind[s.kind], us)
		}
	}
	st.kinds = map[string]kindStats{}
	for k, l := range byKind {
		sort.Float64s(l)
		st.kinds[kindNames[k]] = kindStats{len(l), percentile(l, 0.5)}
	}
	for _, l := range lat {
		sort.Float64s(l)
		st.opsPerS = append(st.opsPerS, float64(len(l))/sub.Seconds())
		st.p50US = append(st.p50US, percentile(l, 0.5))
		st.p99US = append(st.p99US, percentile(l, tailQuantile(len(l))))
	}
	sort.Float64s(all)
	st.okCount = len(all)
	st.tailQ = tailQuantile(len(all))
	st.tailUS = percentile(all, st.tailQ)
	return st
}

func sumInt64(v []int64) float64 {
	var s int64
	for _, x := range v {
		s += x
	}
	return float64(s)
}

// dirBytes is the size of every file under the directories: the data file
// and the WAL of each database.
func dirBytes(dirs []string) int64 {
	var n int64
	for _, d := range dirs {
		_ = filepath.WalkDir(d, func(_ string, e fs.DirEntry, err error) error {
			if err == nil && !e.IsDir() {
				if info, err := e.Info(); err == nil {
					n += info.Size()
				}
			}
			return nil
		})
	}
	return n
}

// setUp runs the workload's set-up in a fresh directory and times it. The
// directory is removed only when the workload is done (runWorkload): the
// sandbox's filesystem is mounted with online discard, and deleting a
// database just before the measured window sends the device TRIMs that the
// window's fsyncs then wait behind.
func setUp(def *workloadDef, cfg *config, traced bool) (*instance, float64, error) {
	dir, err := os.MkdirTemp(cfg.outDir, "data-")
	if err != nil {
		return nil, 0, err
	}
	cfg.scratch = append(cfg.scratch, dir)
	t0 := time.Now()
	in, err := def.setup(&env{def: def, seed: cfg.seed, clients: cfg.clients, dir: dir, traced: traced})
	secs := time.Since(t0).Seconds()
	if err != nil {
		in.close()
		return nil, 0, fmt.Errorf("%s: set-up: %w", def.name, err)
	}
	return in, secs, nil
}

func streamsFor(cfg *config) []*stream {
	s := make([]*stream, cfg.clients)
	for c := range s {
		s[c] = clientStream(cfg.seed, c)
	}
	return s
}

// finish runs the end-of-run oracle and folds it into the result.
func (res *result) finish(in *instance, st windowStats, d driven) error {
	bad := 0
	var err error
	if in.verify != nil {
		bad, err = in.verify()
	}
	in.close()
	if err != nil {
		return fmt.Errorf("%s: end-of-run oracle: %w", res.Name, err)
	}
	res.Attempted += st.attempted
	res.Failed += st.failed + int64(bad)
	res.Errors = append(res.Errors, d.errs...)
	if bad > 0 {
		res.Errors = append(res.Errors, fmt.Sprintf("end-of-run oracle: %d checks failed", bad))
	}
	return nil
}

// runWorkload runs the configured passes of one workload.
func runWorkload(def *workloadDef, cfg *config) (*result, error) {
	res := &result{
		Name: def.name, Why: def.why, FlushPolicy: def.flush,
		Metrics: map[string]metricValue{}, Samples: map[string][]float64{}, Layers: map[string]metricValue{},
	}
	defer func() {
		for _, dir := range cfg.scratch {
			_ = os.RemoveAll(dir)
		}
		cfg.scratch = nil
	}()
	for _, traced := range cfg.passes {
		var err error
		if traced {
			err = layerPass(def, cfg, res)
		} else {
			err = endToEndPass(def, cfg, res)
		}
		if err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// endToEndPass measures the end-to-end metrics with tracing off. The set-up
// runs setupRepeats times so setup_s can be a median; the last one is driven.
func endToEndPass(def *workloadDef, cfg *config, res *result) error {
	var in *instance
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if in != nil {
			in.close()
		}
		var secs float64
		var err error
		if in, secs, err = setUp(def, cfg, false); err != nil {
			return err
		}
		setups = append(setups, secs)
	}
	d := drive(in, streamsFor(cfg), cfg.warmup, cfg.window, nil)
	st := analyze(d, cfg.window)
	if err := res.finish(in, st, d); err != nil {
		return err
	}
	res.SampleCount, res.Kinds = st.okCount, st.kinds
	res.Samples["ops_per_s"], res.Samples["p50_us"], res.Samples["setup_s"] = st.opsPerS, st.p50US, setups
	for _, m := range endToEnd {
		res.Metrics[m.Name] = metricValue{median(res.Samples[m.Name]), m.Unit}
	}
	return nil
}

// layerPass fills the ledger: after one set-up and a warm-up it drives an
// untraced half window, over which the registry's counters are differenced,
// and then a traced half window, whose spans give the timed calls. The
// ratio of the two halves' throughput is the tracing overhead.
func layerPass(def *workloadDef, cfg *config, res *result) error {
	in, _, err := setUp(def, cfg, true)
	if err != nil {
		return err
	}
	diskBytes := dirBytes(in.dataDirs)
	streams := streamsFor(cfg)
	half := cfg.window / 2

	drive(in, streams, 0, cfg.warmup, nil) // warm-up: nothing it measures is kept
	before, rows0, written0 := obs.TakeSnapshot(), sumInt64(in.rows), sumInt64(in.written)
	plain := drive(in, streams, 0, half, nil)
	w := window{
		d:       delta{before, obs.TakeSnapshot()},
		rows:    sumInt64(in.rows) - rows0,
		written: sumInt64(in.written) - written0,
	}
	plainSt := analyze(plain, half)
	w.ops = float64(plainSt.okCount)

	tracers := make([]*tracer, cfg.clients)
	base := time.Now()
	for c := range tracers {
		tracers[c] = newTracer(base, c, def.every)
	}
	traced := drive(in, streams, 0, half, tracers)
	tracedSt := analyze(traced, half)
	w.spans = mergeSpans(tracers)

	layers := layerMetrics(w, in, diskBytes)
	if err := res.finish(in, plainSt, plain); err != nil {
		return err
	}
	res.Attempted += tracedSt.attempted
	res.Failed += tracedSt.failed
	res.Errors = append(res.Errors, traced.errs...)

	res.TailPercentile = plainSt.tailQ * 100
	if res.Kinds == nil {
		res.Kinds = plainSt.kinds
	}
	res.Samples["p99_us"] = plainSt.p99US
	res.TraceOverhead = ratio(median(plainSt.opsPerS), median(tracedSt.opsPerS))
	layers["p99_us"] = plainSt.tailUS
	layers["failed_share"] = ratio(float64(res.Failed), float64(res.Attempted))
	layers["trace_overhead"] = res.TraceOverhead
	for _, m := range perLayer {
		res.Layers[m.Name] = metricValue{layers[m.Name], m.Unit}
	}

	self, ops, wall := selfTimes(w.spans)
	return writeTrace(cfg.outDir, &traceFile{
		Workload: def.name, Seed: cfg.seed, SampleEvery: def.every,
		TracedOps: ops, WallUS: wall, SelfUS: self, Spans: w.spans,
	})
}
