// Command perfbench is the repository benchmark. It runs one named
// workload against the public entry points of the campaign system
// (scenario, campaign, model, core, dist, service), checks that every
// output is correct, and prints the end-to-end metrics — or, with
// --trace 1, the per-layer metrics of a traced run — as the last line of
// standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// It is normally started through perfbench/run.sh from the repository
// root, which builds this program and cmd/campaignw from source first.
// A wrong output prints the result with "correct": false and exits 1;
// any other failure prints no result and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	campaignw string // worker binary for the fleet workload
	dir       string // this run's private scratch directory
	traceOut  string // span file written by a traced run
	tiny      bool   // shrink every workload to a smoke-test size
}

// deadline returns when a run that started at t0 stops measuring.
func (c config) deadline(t0 time.Time) time.Time {
	return t0.Add(time.Duration(c.seconds * float64(time.Second)))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload hands back: the operation counts, whether
// every checked output was right, and the metrics of its mode.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	values    map[string]float64
	detail    string // why correct is false
}

// runner executes one workload in one mode.
type runner func(cfg config, tr *tracer) (outcome, error)

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct{ run, traced runner }{
	"paper-figs":   {runBatch(paperFigs), tracedBatch(paperFigs)},
	"hetero-sweep": {runBatch(heteroSweep), tracedBatch(heteroSweep)},
	"daemon-mixed": {runDaemon, tracedDaemon},
	"fleet":        {runFleet, tracedFleet},
}

// metricNames lists every metric the benchmark reports, with its unit,
// as BENCHMARK.json at the repository root names them.
type metricNames struct {
	endToEnd, perLayer map[string]string
}

func loadMetricNames(root string) (metricNames, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return metricNames{}, err
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return metricNames{}, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	names := metricNames{endToEnd: map[string]string{}, perLayer: map[string]string{}}
	for _, m := range doc.EndToEnd {
		names.endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		names.perLayer[m.Name] = m.Unit
	}
	return names, nil
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "how long one run measures")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead")
	root := fs.String("root", ".", "repository root (the checkout being measured)")
	campaignw := fs.String("campaignw", "", "cmd/campaignw binary (fleet workload)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg := config{
		workload:  *name,
		seed:      *seed,
		seconds:   *seconds,
		trace:     *trace == 1,
		campaignw: *campaignw,
	}
	build := filepath.Join(absRoot, ".bench_build")
	cfg.dir = filepath.Join(build, "run", fmt.Sprintf("%s-s%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if cfg.trace {
		cfg.traceOut = filepath.Join(build, "traces", fmt.Sprintf("%s-s%d.json", cfg.workload, cfg.seed))
	}
	names, err := loadMetricNames(absRoot)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	res, err := execute(cfg, names, w.run, w.traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	printHost(os.Stdout, cfg)
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

// execute runs one workload in the mode cfg selects inside a fresh
// scratch directory, and shapes its outcome into the result line.
func execute(cfg config, names metricNames, run, traced runner) (result, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(cfg.dir)
	var (
		out  outcome
		err  error
		want = names.endToEnd
	)
	if cfg.trace {
		want = names.perLayer
		tr := newTracer()
		out, err = traced(cfg, tr)
		if err == nil {
			err = tr.writeFile(cfg.traceOut, cfg.workload, cfg.seed)
		}
	} else {
		out, err = run(cfg, nil)
	}
	if err != nil {
		return result{}, err
	}
	if !out.correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: wrong output: %s\n", cfg.workload, out.detail)
	}
	res := result{Correct: out.correct, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for name := range out.values {
		if _, ok := want[name]; !ok {
			return result{}, fmt.Errorf("metric %s is not listed in BENCHMARK.json", name)
		}
	}
	// A layer the workload does not reach reads 0 in a traced run.
	for name, unit := range want {
		v, ok := out.values[name]
		if !ok && !cfg.trace {
			return result{}, fmt.Errorf("metric %s was not measured", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is not finite (%v)", name, v)
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	if res.Attempted < 1 {
		return result{}, fmt.Errorf("no operation was attempted")
	}
	return res, nil
}

// printHost prints the facts of the host a run was measured on, so that
// figures from different hosts are never compared unknowingly.
func printHost(f *os.File, cfg config) {
	host := map[string]any{
		"host":       true,
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
	}
	b, _ := json.Marshal(host)
	fmt.Fprintln(f, string(b))
}

// cpuModel reads the processor name from /proc/cpuinfo where it exists.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
