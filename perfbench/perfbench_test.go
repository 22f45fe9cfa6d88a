package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestPercentileAndSpread(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}, {1, 10}} {
		if got := percentile(sorted, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(sorted)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([10, 12, 11, 13, 40], n=4) == [10.5, 12.0, 26.5]
	q1, q2, q3 = quartiles([]float64{10, 12, 11, 13, 40})
	if q1 != 10.5 || q2 != 12 || q3 != 26.5 {
		t.Errorf("quartiles = %v %v %v, want 10.5 12 26.5", q1, q2, q3)
	}
	if got, want := spread(sorted), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want %v", got, want)
	}
	if got := tailQuantile(500); got != 0.98 {
		t.Errorf("tailQuantile(500) = %v, want 0.98 (ten samples beyond it)", got)
	}
	if got := tailQuantile(100000); got != 0.99 {
		t.Errorf("tailQuantile(100000) = %v, want the cap 0.99", got)
	}
}

func TestJudge(t *testing.T) {
	for _, c := range []struct {
		a, b      float64
		higher    bool
		sA, sB    float64
		want      verdict
		worsening float64
	}{
		{100, 95, true, 0.01, 0.01, within, 0.05},
		{100, 85, true, 0.01, 0.01, worse, 0.15},
		{100, 120, true, 0.01, 0.01, better, -0.2},
		{100, 115, false, 0.01, 0.01, worse, 0.15},
		{100, 85, false, 0.01, 0.01, better, -0.15},
		{100, 85, true, 0.2, 0.01, unresolved, 0.15},
	} {
		got, w := judge(c.a, c.b, c.higher, 0.10, c.sA, c.sB)
		if got != c.want || math.Abs(w-c.worsening) > 1e-12 {
			t.Errorf("judge(%v→%v higher=%v) = %s %+.3f, want %s %+.3f", c.a, c.b, c.higher, got, w, c.want, c.worsening)
		}
	}
}

// streamBytes renders the first n operations client draws, as the generator
// alone determines them.
func streamBytes(def *workloadDef, seed int64, client, n int) []byte {
	ops := genOps(def, seed, maxClients)
	order := clientStream(seed, client)
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		o := ops[order.next()]
		fmt.Fprintf(&buf, "%d %q %d\n", o.Kind, o.Stmt, o.Arg)
	}
	return buf.Bytes()
}

func TestSameSeedSameStream(t *testing.T) {
	for i := range workloads {
		def := &workloads[i]
		if len(genOps(def, 1, maxClients)) != opPool {
			t.Errorf("%s: the mix does not add up to %d operations", def.name, opPool)
		}
		a, b := streamBytes(def, 7, 0, 2000), streamBytes(def, 7, 0, 2000)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different operation streams", def.name)
		}
		if bytes.Equal(a, streamBytes(def, 8, 0, 2000)) {
			t.Errorf("%s: seeds 7 and 8 gave the same operation stream", def.name)
		}
		if bytes.Equal(a, streamBytes(def, 7, 1, 2000)) {
			t.Errorf("%s: clients 0 and 1 drew the same operation stream", def.name)
		}
	}
	a, b := genWorld(3), genWorld(3)
	if fmt.Sprint(a) != fmt.Sprint(b) || fmt.Sprint(a) == fmt.Sprint(genWorld(4)) {
		t.Error("the world model is not a function of the seed alone")
	}
}

func fullResult(name string) *result {
	r := &result{Name: name, Metrics: map[string]metricValue{}, Layers: map[string]metricValue{}}
	for _, m := range endToEnd {
		r.Metrics[m.Name] = metricValue{1, m.Unit}
	}
	for _, m := range perLayer {
		r.Layers[m.Name] = metricValue{1, m.Unit}
	}
	return r
}

func TestEnvelopeValidator(t *testing.T) {
	both := []bool{false, true}
	ok := &envelope{Workloads: []*result{fullResult("embed.query")}}
	if err := ok.validate(both); err != nil {
		t.Fatalf("a complete envelope was rejected: %v", err)
	}
	missing := &envelope{Workloads: []*result{fullResult("embed.query")}}
	delete(missing.Workloads[0].Metrics, "p50_us")
	if missing.validate(both) == nil {
		t.Error("an envelope without p50_us was accepted")
	}
	noLayer := &envelope{Workloads: []*result{fullResult("embed.query")}}
	delete(noLayer.Workloads[0].Layers, "wal.fsync_us")
	if noLayer.validate(both) == nil {
		t.Error("an envelope without wal.fsync_us was accepted")
	}
	if err := noLayer.validate([]bool{false}); err != nil {
		t.Errorf("a layer metric was demanded of an end-to-end pass: %v", err)
	}
	unit := &envelope{Workloads: []*result{fullResult("embed.query")}}
	unit.Workloads[0].Metrics["setup_s"] = metricValue{1, ""}
	if unit.validate(both) == nil {
		t.Error("a metric without a unit was accepted")
	}
	for _, name := range []string{"embed query", "", "-x", "a/b"} {
		if (&envelope{Workloads: []*result{fullResult(name)}}).validate(both) == nil {
			t.Errorf("workload name %q was accepted", name)
		}
	}
	if (&envelope{}).validate(both) == nil {
		t.Error("an envelope without workloads was accepted")
	}
}

// TestBenchmarkFileMatchesCode holds BENCHMARK.json and the tables in the
// code together: same workloads and whys, same metrics, units, directions.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the code %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the code %d+%d", len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		m.Bound = 0
		if m != endToEnd[i] {
			t.Errorf("end_to_end[%d]: BENCHMARK.json has %v, the code %v", i, m, endToEnd[i])
		}
	}
	for i, m := range bf.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per_layer[%d]: BENCHMARK.json has %v, the code %v", i, m, perLayer[i])
		}
	}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q with unit %q does not fit the contract's name and unit shapes", m.Name, m.Unit)
		}
	}
}

// TestSmokeAllWorkloads drives every workload through both passes with a
// 1 s window and no warm-up: no operation may fail, every oracle must pass,
// every named metric must be present and every trace file written.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("drives all five workloads for a second each")
	}
	out := t.TempDir()
	if err := run("", 1, 1, 0, -1, out); err != nil {
		t.Fatal(err)
	}
	env, err := readEnvelope(filepath.Join(out, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if env.Claim != nil {
		t.Error("the envelope makes a claim")
	}
	if len(env.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the envelope, want %d", len(env.Workloads), len(workloads))
	}
	if err := env.validate([]bool{false, true}); err != nil {
		t.Error(err)
	}
	for _, w := range env.Workloads {
		if !w.Correct || w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", w.Name, w.Correct, w.Attempted, w.Failed, w.Errors)
		}
		for _, m := range endToEnd {
			if w.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: %s = %v, want a positive number", w.Name, m.Name, w.Metrics[m.Name].Value)
			}
		}
		if len(w.Samples["ops_per_s"]) != subWindows {
			t.Errorf("%s: %d ops_per_s samples, want %d", w.Name, len(w.Samples["ops_per_s"]), subWindows)
		}
		if w.Layers["failed_share"].Value != 0 {
			t.Errorf("%s: failed_share = %v", w.Name, w.Layers["failed_share"].Value)
		}
		if w.TraceOverhead <= 0 {
			t.Errorf("%s: trace_overhead = %v", w.Name, w.TraceOverhead)
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".json")); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
	left, _ := filepath.Glob(filepath.Join(out, "data-*"))
	if len(left) != 0 {
		t.Errorf("scratch databases were left behind: %v", left)
	}
}
