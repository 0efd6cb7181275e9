// Command bench runs the repository's headline benchmarks and writes
// them to a JSON perf ledger (BENCH_<n>.json at the repo root), so that
// performance PRs record comparable before/after numbers instead of
// pasting ad-hoc console output. Each ledger entry maps a benchmark to
// its reported metrics (ns/op, allocs/op, units/s, ...).
//
// With -baseline it also compares against a previous ledger: it prints
// per-benchmark deltas for every shared metric and exits non-zero when
// any throughput metric (units/s) regresses by more than -max-regress.
// "-baseline auto" picks the highest-numbered BENCH_<n>.json in the
// working directory, which is how the CI bench-smoke job guards the
// perf trajectory.
//
// Examples:
//
//	go run ./cmd/bench                          # 1s per bench → BENCH.json
//	go run ./cmd/bench -out BENCH_5.json        # this PR's ledger
//	go run ./cmd/bench -benchtime 1x -out /tmp/smoke.json -baseline auto   # CI smoke + gate
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// headline is the default benchmark set: the Monte-Carlo steady state
// (RunSingle, plus its online-arrivals variant), the one-shot path
// (EngineSingleRun), the campaign runner end to end
// (CampaignThroughput[Adaptive], plus the heterogeneous-sweep pair that
// quotes the compiled-model cache's payoff against its own no-cache
// baseline), the compiled-model micro set (ExpectedTimeRaw vs
// CompiledAt; CompileCold/CompileWarm for the table build on fresh vs
// reused arenas; RecompileDelta for the incremental rebuild), and the
// row kernels (CandidateRowSweep for the batched min-reduction,
// DecisionRound for a full heuristic round over it, and
// DecisionRoundPaperScale for a paper-scale round dominated by scans the
// pruned-scan bound skips).
const headline = "BenchmarkRunSingle$|BenchmarkRunOnline$|BenchmarkEngineSingleRun$" +
	"|BenchmarkCampaignThroughput$|BenchmarkCampaignThroughputAdaptive$" +
	"|BenchmarkCampaignThroughputHeterogeneous$|BenchmarkCampaignThroughputHeterogeneousNoCache$" +
	"|BenchmarkExpectedTimeRaw$|BenchmarkCompiledAt$|BenchmarkCompileCold$|BenchmarkCompileWarm$" +
	"|BenchmarkRecompileDelta$|BenchmarkCandidateRowSweep$|BenchmarkDecisionRound$|BenchmarkDecisionRoundPaperScale$"

// ledger is the JSON document layout. The environment block (Go version,
// GOMAXPROCS, CPU, commit) makes a ledger self-describing: a reader of a
// committed BENCH_<n>.json can tell which toolchain and machine produced
// the numbers, and the diff gate uses CPU identity to decide whether a
// wall-clock comparison is meaningful at all.
type ledger struct {
	BenchTime  string                        `json:"benchtime"`
	Goos       string                        `json:"goos,omitempty"`
	Goarch     string                        `json:"goarch,omitempty"`
	CPU        string                        `json:"cpu,omitempty"`
	GoVersion  string                        `json:"go_version,omitempty"`
	GoMaxProcs int                           `json:"gomaxprocs,omitempty"`
	Commit     string                        `json:"commit,omitempty"`
	Benchmarks map[string]map[string]float64 `json:"benchmarks"`
}

func main() {
	var (
		benchtime = flag.String("benchtime", "1s", "per-benchmark budget passed to go test (e.g. 1s, 100x)")
		benchRE   = flag.String("bench", headline, "benchmark selection regex passed to go test")
		out       = flag.String("out", "BENCH.json", "output JSON file")
		count     = flag.Int("count", 1, "runs per benchmark (go test -count); metrics keep the last run")
		baseline  = flag.String("baseline", "", "previous ledger to diff against (\"auto\" = highest BENCH_<n>.json here); exits non-zero on throughput regression")
		maxReg    = flag.Float64("max-regress", 0.25, "with -baseline: tolerated fractional units/s regression before failing")
	)
	flag.Parse()

	args := []string{
		"test", "-run", "^$",
		"-bench", *benchRE,
		"-benchtime", *benchtime,
		"-benchmem",
		"-count", strconv.Itoa(*count),
		".", "./internal/model", "./internal/core",
	}
	cmd := exec.Command("go", args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	fmt.Fprintf(os.Stderr, "bench: go %s\n", strings.Join(args, " "))
	if err := cmd.Run(); err != nil {
		fatalf("go test: %v\n%s", err, buf.String())
	}
	os.Stdout.Write(buf.Bytes())

	led := parse(buf.String())
	led.BenchTime = *benchtime
	led.GoVersion = runtime.Version()
	led.GoMaxProcs = runtime.GOMAXPROCS(0)
	led.Commit = headCommit()
	if len(led.Benchmarks) == 0 {
		fatalf("no benchmark lines in go test output")
	}
	data, err := json.MarshalIndent(led, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	// The baseline is resolved and read before -out is written:
	// "-baseline auto" with `-out BENCH_<n+1>.json` must diff against
	// the previous ledger, not the file this run is about to create
	// (and rewriting the baseline's own path must not self-compare).
	var prev *ledger
	var prevPath string
	if *baseline != "" {
		path, err := resolveBaseline(*baseline)
		if err != nil {
			fatalf("%v", err)
		}
		base, err := readLedger(path)
		if err != nil {
			fatalf("%v", err)
		}
		prev, prevPath = &base, path
	}

	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("bench: wrote %s (%d benchmarks)\n", *out, len(led.Benchmarks))

	if prev != nil {
		if failed := diff(os.Stdout, *prev, led, prevPath, *maxReg); failed {
			fatalf("regression vs %s: throughput down more than %.0f%%, or a zero-alloc benchmark now allocates", prevPath, *maxReg*100)
		}
	}
}

// headCommit returns the abbreviated HEAD hash, best-effort: ledgers
// produced outside a git checkout simply omit the field.
func headCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// resolveBaseline expands "auto" to the highest-numbered BENCH_<n>.json
// in the working directory.
func resolveBaseline(arg string) (string, error) {
	if arg != "auto" {
		return arg, nil
	}
	matches, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		return "", err
	}
	re := regexp.MustCompile(`^BENCH_(\d+)\.json$`)
	best, bestN := "", -1
	for _, m := range matches {
		sub := re.FindStringSubmatch(filepath.Base(m))
		if sub == nil {
			continue
		}
		n, err := strconv.Atoi(sub[1])
		if err == nil && n > bestN {
			best, bestN = m, n
		}
	}
	if best == "" {
		return "", fmt.Errorf("bench: -baseline auto found no BENCH_<n>.json ledger")
	}
	return best, nil
}

func readLedger(path string) (ledger, error) {
	var led ledger
	data, err := os.ReadFile(path)
	if err != nil {
		return led, fmt.Errorf("bench: reading baseline: %w", err)
	}
	if err := json.Unmarshal(data, &led); err != nil {
		return led, fmt.Errorf("bench: parsing baseline %s: %w", path, err)
	}
	return led, nil
}

// diff prints per-benchmark deltas for every metric shared with the
// baseline and reports whether any throughput (units/s) metric regressed
// by more than maxReg. Only throughput gates (ns/op at one iteration is
// warm-up noise), and only between comparable measurements: when the
// baseline was recorded on a different CPU or at a different benchtime
// — the CI case, where hosted runners diff against the committed
// dev-box ledger — the deltas are advisory and never fail, since
// absolute wall-clock throughput is only meaningful on the same
// machine. The hard gate fires for like-for-like ledgers (local reruns
// on the box that produced the baseline).
func diff(w *os.File, prev, cur ledger, path string, maxReg float64) bool {
	advisory := prev.CPU != cur.CPU || prev.BenchTime != cur.BenchTime
	// Allocation counts are a property of the code, not the machine —
	// but they are benchtime-sensitive: the arena-reuse benchmarks
	// amortize their warm-up allocations across iterations, so one-shot
	// runs (-benchtime 1x) legitimately report non-zero allocs/op. The
	// zero-alloc gate therefore compares like benchtimes only, but fires
	// even across CPUs.
	allocsComparable := prev.BenchTime == cur.BenchTime
	if advisory {
		fmt.Fprintf(w, "bench: baseline %s was measured on %q at benchtime %s (now %q at %s): deltas are advisory, regression gate off\n",
			path, prev.CPU, prev.BenchTime, cur.CPU, cur.BenchTime)
	}
	fmt.Fprintf(w, "bench: deltas vs %s (benchtime %s -> %s)\n", path, prev.BenchTime, cur.BenchTime)
	names := make([]string, 0, len(cur.Benchmarks))
	for name := range cur.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	failed := false
	for _, name := range names {
		old, ok := prev.Benchmarks[name]
		if !ok {
			fmt.Fprintf(w, "  %-36s (new, no baseline)\n", name)
			continue
		}
		units := make([]string, 0, len(cur.Benchmarks[name]))
		for unit := range cur.Benchmarks[name] {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			was, ok := old[unit]
			if !ok {
				continue
			}
			now := cur.Benchmarks[name][unit]
			// A zero-alloc benchmark that starts allocating is a real
			// regression even when the wall-clock deltas are advisory:
			// the simulator hot path's 0 allocs/op steady state is a
			// load-bearing invariant.
			if unit == "allocs/op" && allocsComparable && was == 0 && now > 0 {
				fmt.Fprintf(w, "  %-36s %-10s %14.4g -> %-14.4g  << REGRESSION (was zero-alloc)\n",
					name, unit, was, now)
				failed = true
				continue
			}
			if was == 0 {
				continue
			}
			delta := (now - was) / was
			marker := ""
			if unit == "units/s" && delta < -maxReg {
				marker = "  << REGRESSION"
				failed = !advisory
			}
			fmt.Fprintf(w, "  %-36s %-10s %14.4g -> %-14.4g (%+.1f%%)%s\n",
				name, unit, was, now, delta*100, marker)
		}
	}
	return failed
}

// parse extracts benchmark metric lines from go test -bench output.
// A result line reads "BenchmarkName-8  206  5741459 ns/op  4180 units/s
// 36880 B/op  406 allocs/op": the name (GOMAXPROCS suffix stripped), the
// iteration count, then (value, unit) metric pairs.
func parse(outp string) ledger {
	led := ledger{Benchmarks: map[string]map[string]float64{}}
	for _, line := range strings.Split(outp, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if len(f) >= 2 {
			switch f[0] {
			case "goos:":
				led.Goos = f[1]
				continue
			case "goarch:":
				led.Goarch = f[1]
				continue
			case "cpu:":
				led.CPU = strings.Join(f[1:], " ")
				continue
			}
		}
		if !strings.HasPrefix(f[0], "Benchmark") || len(f) < 4 {
			continue
		}
		name := f[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		metrics := map[string]float64{}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			metrics[f[i+1]] = v
		}
		if len(metrics) > 0 {
			led.Benchmarks[name] = metrics
		}
	}
	return led
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}
