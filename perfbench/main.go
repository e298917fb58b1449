// Command perfbench is the repository benchmark. It drives three
// workloads through the program's public modules from one process —
// the Figure-8 display chain, firehose ingestion, and brush-and-link
// reads beside writes — checks that their outputs are correct, and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the benchmark also records spans around its calls into each layer and
// prints the per-layer metrics instead. Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fig8_chain --seed 1 --seconds 30 --trace 0
//
// The exit status is non-zero when a correctness check fails or the
// run cannot complete.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ediflow/internal/storage"
)

// storeOptions is the durability every workload opens its store with:
// WAL records reach the OS page cache at every commit, and the store's
// flusher fsyncs them as a group every 100ms (ediserver -fsync
// interval). With an fsync inside every commit, every latency metric
// followed the shared disk: the mean fsync time differed 2.5x between
// identical runs and moved the chain median by 20%.
func storeOptions() storage.Options {
	return storage.Options{Sync: storage.SyncInterval, SyncEvery: 100 * time.Millisecond}
}

func flushPolicy() string {
	o := storeOptions()
	return fmt.Sprintf("%s (group fsync every %s)", o.Sync, o.SyncEvery)
}

// runOpts are the per-run settings every workload receives.
type runOpts struct {
	seed    int64
	seconds time.Duration
	trace   bool
	dir     string // scratch root for database directories
	setups  int    // setups per run; setup_s is their median
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// workloads maps each workload name to its runner at default size.
var workloads = map[string]func(runOpts) (*report, error){
	"fig8_chain": func(o runOpts) (*report, error) { return runFig8(defaultFig8(), o) },
	"firehose":   func(o runOpts) (*report, error) { return runFirehose(defaultFirehose(), o) },
	"brush_link": func(o runOpts) (*report, error) { return runBrush(defaultBrush(), o) },
}

func main() {
	workload := flag.String("workload", "", "fig8_chain, firehose or brush_link")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "1 records spans and prints per-layer metrics")
	dir := flag.String("dir", filepath.Join(".bench_build", "perfbench"), "directory for databases, results and traces")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload %s --seed N --seconds S --trace 0|1\n", strings.Join(sortedKeys(workloads), "|"))
		os.Exit(2)
	}
	o := runOpts{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, setups: 3}
	o.dir = filepath.Join(*dir, fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid()))
	code := execute(*workload, run, o, filepath.Join(*dir, "results"))
	os.Exit(code)
}

// execute runs one workload and prints its report and result line.
func execute(workload string, run func(runOpts) (*report, error), o runOpts, resultsDir string) int {
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(o.dir)
	rep, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", workload, err)
		return 1
	}
	host := describeHost(workload, o.seed, o.trace, flushPolicy())
	res, err := buildResult(rep, o.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", workload, err)
		return 1
	}
	printReport(host, rep, res)
	if err := saveRun(resultsDir, host, rep, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: saving result: %v\n", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// buildResult selects the metric set the mode prints. A per-layer
// metric the workload never touches reads 0; an end-to-end metric must
// always be measured.
func buildResult(rep *report, traced bool) (result, error) {
	res := result{
		Correct:   len(rep.checkErrs) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricOut{},
	}
	defs, vals := endToEnd, rep.e2e
	if traced {
		defs, vals = perLayer, rep.layer
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !traced && (!ok || v <= 0) {
			return res, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation was attempted")
	}
	return res, nil
}

func printReport(host hostInfo, rep *report, res result) {
	hb, _ := json.Marshal(host)
	fmt.Printf("# host %s\n", hb)
	for _, n := range rep.notes {
		fmt.Printf("# %s\n", n)
	}
	for _, e := range rep.checkErrs {
		fmt.Printf("# CHECK FAILED: %s\n", e)
	}
	fmt.Printf("# operations: attempted %d, failed %d\n", res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-36s %14.4f %s\n", n, m.Value, m.Unit)
	}
}

// saveRun records the result with its host description, and the trace
// when there is one, under dir.
func saveRun(dir string, host hostInfo, rep *report, res result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stamp := fmt.Sprintf("%s-seed%d-trace%v-%d", host.Workload, host.Seed, host.Trace, time.Now().UnixNano())
	out := struct {
		Host   hostInfo `json:"host"`
		Notes  []string `json:"notes"`
		Checks []string `json:"failed_checks"`
		Result result   `json:"result"`
	}{host, rep.notes, rep.checkErrs, res}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, stamp+".json"), b, 0o644); err != nil {
		return err
	}
	if rep.tracer != nil {
		return rep.tracer.WriteJSONL(filepath.Join(dir, stamp+".spans.jsonl"))
	}
	return nil
}

// repeatSetup builds the workload o.setups times, tearing down all but
// the last, and returns the last with the median set-up time in seconds.
func repeatSetup[T any](o runOpts, setup func(dir string) (T, error), teardown func(T)) (T, float64, error) {
	var times []float64
	var zero T
	for i := 0; i < o.setups; i++ {
		dir := filepath.Join(o.dir, fmt.Sprintf("setup-%d", i))
		start := time.Now()
		v, err := setup(dir)
		if err != nil {
			return zero, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if i == o.setups-1 {
			return v, median(times), nil
		}
		teardown(v)
		if err := os.RemoveAll(dir); err != nil {
			return zero, 0, err
		}
	}
	return zero, 0, fmt.Errorf("setup: no set-up requested")
}
