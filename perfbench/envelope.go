package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
)

// envelope is the one result file of a run: where it ran, then every
// workload's metrics, spread samples and layer ledger. It ends with
// "claim": null because this benchmark measures and claims nothing; a later
// change that claims a gain cites two envelopes and -compare.
type envelope struct {
	Env       envBlock  `json:"env"`
	Workloads []*result `json:"workloads"`
	Claim     *string   `json:"claim"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validate rejects an envelope the driver or -compare could not read: a
// workload with a malformed name, or a pass that ran without every one of
// its metrics carrying a value and a well-formed unit.
func (e *envelope) validate(passes []bool) error {
	if len(e.Workloads) == 0 {
		return fmt.Errorf("no workloads")
	}
	for _, w := range e.Workloads {
		if !nameRE.MatchString(w.Name) {
			return fmt.Errorf("workload name %q is outside [A-Za-z0-9_.-]", w.Name)
		}
		for _, traced := range passes {
			defs, have := endToEnd, w.Metrics
			if traced {
				defs, have = perLayer, w.Layers
			}
			for _, d := range defs {
				m, ok := have[d.Name]
				if !ok {
					return fmt.Errorf("%s: metric %s is missing", w.Name, d.Name)
				}
				if !unitRE.MatchString(m.Unit) {
					return fmt.Errorf("%s: metric %s has unit %q", w.Name, d.Name, m.Unit)
				}
			}
		}
	}
	return nil
}

func (e *envelope) write(dir string) error {
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "result.json"), append(data, '\n'), 0o644)
}

func readEnvelope(path string) (*envelope, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var e envelope
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &e, nil
}

// benchmarkFile is BENCHMARK.json, the contract with the driver.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// readBenchmarkFile finds BENCHMARK.json from the checkout root (where the
// benchmark runs) or from this directory (where its tests run).
func readBenchmarkFile() (*benchmarkFile, error) {
	var data []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if data, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}
