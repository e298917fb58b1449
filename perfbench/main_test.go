package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func fullReport() *report {
	r := newReport()
	for i, d := range endToEnd {
		r.e2e[d.Name] = float64(i + 1)
	}
	r.attempted, r.failed = 10, 2
	return r
}

func TestBuildResultAccounting(t *testing.T) {
	res, err := buildResult(fullReport(), false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 10 || res.Failed != 2 {
		t.Fatalf("result %+v: want correct, 10 attempted, 2 failed", res)
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Fatalf("%d metrics, want %d", len(res.Metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		if m := res.Metrics[d.Name]; m.Unit != d.Unit || m.Value <= 0 {
			t.Errorf("%s = %+v", d.Name, m)
		}
	}
}

func TestBuildResultFailedCheckIsIncorrect(t *testing.T) {
	r := fullReport()
	r.checkf("view differs")
	res, err := buildResult(r, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Fatal("a failed check must make the result incorrect")
	}
}

func TestBuildResultRejectsMissingEndToEndMetric(t *testing.T) {
	r := fullReport()
	delete(r.e2e, "latency_p50_ms")
	if _, err := buildResult(r, false); err == nil {
		t.Fatal("an unmeasured end-to-end metric must be an error")
	}
	r = fullReport()
	r.attempted = 0
	if _, err := buildResult(r, false); err == nil {
		t.Fatal("a run that attempted nothing must be an error")
	}
}

func TestBuildResultTracedPrintsEveryLayer(t *testing.T) {
	r := fullReport()
	r.layer["vis.write_ms"] = 3
	res, err := buildResult(r, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Fatalf("%d metrics, want %d", len(res.Metrics), len(perLayer))
	}
	if res.Metrics["vis.write_ms"].Value != 3 || res.Metrics["react.shed"].Value != 0 {
		t.Fatalf("layer metrics %v", res.Metrics)
	}
}

// TestBenchmarkJSONMatchesMetricLists keeps BENCHMARK.json and the
// metric lists the program prints in step.
func TestBenchmarkJSONMatchesMetricLists(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
}

func TestRepeatSetupKeepsLastAndTearsDownOthers(t *testing.T) {
	o := runOpts{dir: t.TempDir(), setups: 3}
	var made, torn []int
	n := 0
	v, secs, err := repeatSetup(o, func(dir string) (int, error) {
		n++
		made = append(made, n)
		time.Sleep(time.Millisecond)
		return n, os.MkdirAll(dir, 0o755)
	}, func(i int) { torn = append(torn, i) })
	if err != nil {
		t.Fatal(err)
	}
	if v != 3 || len(made) != 3 || len(torn) != 2 || torn[0] != 1 || torn[1] != 2 {
		t.Fatalf("kept %d, made %v, torn down %v", v, made, torn)
	}
	if secs <= 0 {
		t.Fatalf("setup seconds %v", secs)
	}
	_, _, err = repeatSetup(o, func(string) (int, error) { return 0, errors.New("boom") }, func(int) {})
	if err == nil {
		t.Fatal("a failed setup must be an error")
	}
}
