package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer's public function, recorded from the
// benchmark's side of the call. Spans of one operation share Req; Parent is
// the span that was open when this one began (-1 for an operation's root).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records the spans of one client goroutine, so it needs no lock.
// It samples one operation in `every`; between samples begin/end cost one
// branch. A nil tracer records nothing.
type tracer struct {
	base   time.Time
	client int64
	every  int64
	ops    int64
	on     bool
	cur    int32
	spans  []span
}

func newTracer(base time.Time, client, every int) *tracer {
	return &tracer{base: base, client: int64(client), every: int64(every), cur: -1}
}

// nextOp is called once before each operation and decides whether it is
// sampled.
func (t *tracer) nextOp() {
	if t == nil {
		return
	}
	t.ops++
	t.on = t.ops%t.every == 0
	t.cur = -1
}

// sampled reports whether the current operation is being traced.
func (t *tracer) sampled() bool { return t != nil && t.on }

func (t *tracer) begin(name string) int32 {
	if t == nil || !t.on {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{
		ID: id, Parent: t.cur, Req: t.client<<40 | t.ops, Name: name,
		Start: int64(time.Since(t.base)),
	})
	t.cur = id
	return id
}

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.base))
	t.cur = s.Parent
}

// layerOf names the layer (one of the repo's modules) whose public function a
// span wraps. A span with no entry is an operation's root and belongs to the
// harness: its self time is the loop, the generator and the oracle. Twin
// spans (the embedded equivalent of a wire call, a direct member leg of a
// scatter) are measurements taken beside an operation, outside its root, and
// are kept out of the ledger.
func layerOf(name string) string {
	if l, ok := spanLayers[name]; ok {
		return l
	}
	for _, p := range prefixLayers {
		if strings.HasPrefix(name, p.prefix) {
			return p.layer
		}
	}
	return "harness"
}

var prefixLayers = []struct{ prefix, layer string }{
	{"twin.", "twin"}, {"client.Client.", "wire"}, {"shard.Router.", "shard"},
}

var spanLayers = map[string]string{
	"oodb.DB.Fetch":          "storage",
	"oodb.DB.Begin":          "txn",
	"oodb.DB.Checkpoint":     "core",
	"oodb.DB.BeginSnapshot":  "mvcc",
	"query.Parse":            "query.parse",
	"query.Engine.PlanQuery": "query.plan",
	"query.Engine.Execute":   "query.exec",
	"core.Tx.Fetch":          "txn",
	"core.Tx.Update":         "core",
	"core.Tx.Insert":         "core",
	"core.Tx.Commit":         "wal",
}

// traceFile is what trace-<workload>.json holds.
type traceFile struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	SampleEvery int                `json:"sample_every"`
	TracedOps   int                `json:"traced_ops"`
	WallUS      float64            `json:"traced_ops_wall_us"`
	SelfUS      map[string]float64 `json:"self_us_by_layer"`
	Spans       []span             `json:"spans"`
}

// mergeSpans concatenates the clients' spans into one id space. Every span is
// closed: a client finishes its operation before it looks at the clock.
func mergeSpans(tracers []*tracer) []span {
	var all []span
	for _, t := range tracers {
		off := int32(len(all))
		for _, s := range t.spans {
			s.ID += off
			if s.Parent >= 0 {
				s.Parent += off
			}
			all = append(all, s)
		}
	}
	return all
}

// selfTimes charges each span's duration minus its children's to the span's
// layer. Operations are the roots that are not twins; wallUS is the sum of
// their durations, which the per-layer self times add up to by construction
// as long as every child lies inside its parent.
func selfTimes(spans []span) (selfUS map[string]float64, ops int, wallUS float64) {
	byID := make(map[int32]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	child := make(map[int32]int64, len(spans))
	twin := func(s *span) bool {
		for s.Parent >= 0 {
			p, ok := byID[s.Parent]
			if !ok {
				break
			}
			s = p
		}
		return layerOf(s.Name) == "twin"
	}
	selfUS = make(map[string]float64)
	for i := range spans {
		s := &spans[i]
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i := range spans {
		s := &spans[i]
		if twin(s) {
			continue
		}
		selfUS[layerOf(s.Name)] += float64(s.End-s.Start-child[s.ID]) / 1e3
		if s.Parent < 0 {
			ops++
			wallUS += float64(s.End-s.Start) / 1e3
		}
	}
	return selfUS, ops, wallUS
}

// spanDurationsUS returns the durations of every span with the given name,
// sorted ascending.
func spanDurationsUS(spans []span, name string) []float64 {
	var d []float64
	for i := range spans {
		if spans[i].Name == name {
			d = append(d, float64(spans[i].End-spans[i].Start)/1e3)
		}
	}
	sort.Float64s(d)
	return d
}

func writeTrace(dir string, tf *traceFile) error {
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+tf.Workload+".json"), data, 0o644)
}
