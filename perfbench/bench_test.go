package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// lastResult runs the benchmark command in-process and decodes its last
// line of output.
func lastResult(t *testing.T, args ...string) (result, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v (stderr: %s)", lines[len(lines)-1], err, stderr.String())
	}
	return res, code
}

// TestSpecMatchesWorkloads pins BENCHMARK.json's workload list to the
// workloads the command knows.
func TestSpecMatchesWorkloads(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
}

// TestEveryMetricEmitted runs one DSM and the gofront workload briefly in
// both modes and checks that every metric BENCHMARK.json names is printed
// with its unit, and that end-to-end metrics are positive.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads")
	}
	spec := loadSpec(t)
	for _, w := range []string{"water-check", "kv-gofront"} {
		for trace, want := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
			res, code := lastResult(t, "--workload", w, "--seed", "1", "--seconds", "0.01", "--trace", []string{"0", "1"}[trace])
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace %d: exit %d, result %+v", w, trace, code, res)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json names %d", w, trace, len(res.Metrics), len(want))
			}
			for _, sm := range want {
				got, ok := res.Metrics[sm.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %d: metric %s missing", w, trace, sm.Name)
				case got.Unit != sm.Unit:
					t.Errorf("%s trace %d: metric %s unit %q, BENCHMARK.json says %q", w, trace, sm.Name, got.Unit, sm.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace %d: metric %s = %v", w, trace, sm.Name, got.Value)
				case trace == 0 && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, sm.Name, got.Value)
				}
			}
		}
	}
}

// TestTamperedReferenceFailsGate changes one pinned value of each
// workload's reference and checks that the gate then refuses the run.
func TestTamperedReferenceFailsGate(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if _, ok := ref[w.name]; !ok {
			t.Fatalf("reference.json has no entry for %s", w.name)
		}
	}

	// Static checks on fingerprints taken from the reference itself.
	sor := *ref["sor-access"].Fingerprint
	if err := ref.check("sor-access", 1, sor); err != nil {
		t.Fatalf("reference fingerprint fails its own gate: %v", err)
	}
	sor.VirtualNS++
	if ref.check("sor-access", 1, sor) == nil {
		t.Error("sor-access: a changed virtual time passed the gate")
	}
	if ref.check("tsp-locks", 1, fingerprint{RacyVars: []string{"minTour", "qSlots"}}) == nil {
		t.Error("tsp-locks: a race outside the tour bound passed the gate")
	}
	if ref.check("tsp-locks", 1, fingerprint{RacyVars: []string{}}) == nil {
		t.Error("tsp-locks: a run with no races passed the gate")
	}
	kv := ref["kv-gofront"].Seeds["1"]
	kv.Reports++
	if ref.check("kv-gofront", 1, kv) == nil {
		t.Error("kv-gofront: a changed report count passed the seed's gate")
	}
	if ref.check("kv-gofront", 1<<40, fingerprint{RacyVars: []string{"kv.val[0]"}}) == nil {
		t.Error("kv-gofront: a changed race set passed the gate of an unpinned seed")
	}

	if testing.Short() {
		return
	}
	// End to end: a tampered water-check reference makes the run fail.
	w, _ := findWorkload("water-check")
	tampered := reference{}
	for k, v := range ref {
		tampered[k] = v
	}
	fp := *ref["water-check"].Fingerprint
	fp.Reports++
	tampered["water-check"] = refEntry{Fingerprint: &fp}
	var log bytes.Buffer
	b := &bench{w: w, seed: 1, ref: tampered, seconds: 0.01, log: &log}
	if res := b.timed(); res.Correct || res.Failed == 0 {
		t.Errorf("water-check with a tampered reference: %+v", res)
	}
	if !strings.Contains(log.String(), "correctness gate") {
		t.Errorf("gate failure not reported: %s", log.String())
	}
}
