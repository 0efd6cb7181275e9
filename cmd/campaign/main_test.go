package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cosched/internal/campaign"
	"cosched/internal/experiments"
	"cosched/internal/scenario"
	"cosched/internal/workload"
)

// run drives realMain, turning a panic into an error so a flag that
// crashes instead of failing cleanly shows up as a test failure.
func run(args ...string) (stdout string, err error) {
	var out bytes.Buffer
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
		stdout = out.String()
	}()
	return "", realMain(args, &out, io.Discard)
}

// printedSpec runs realMain with -print-spec and decodes what it printed.
func printedSpec(t *testing.T, args ...string) scenario.Spec {
	t.Helper()
	out, err := run(append(args, "-print-spec")...)
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	sp, err := scenario.Decode(strings.NewReader(out))
	if err != nil {
		t.Fatalf("%v: printed spec does not decode: %v", args, err)
	}
	return sp
}

func fingerprint(t *testing.T, sp scenario.Spec) uint64 {
	t.Helper()
	fp, err := sp.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestPrintSpecFigure: -figure exports exactly the spec the paper-figure
// table builds, so a printed figure spec run through -spec reproduces
// the figure.
func TestPrintSpecFigure(t *testing.T) {
	got := printedSpec(t, "-figure", "8", "-reps", "2", "-shrink", "0.1")
	want, err := experiments.FigureScenario("8", experiments.Params{Reps: 2, Shrink: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := fingerprint(t, got), fingerprint(t, want); g != w {
		t.Fatalf("printed fig8 spec fingerprint %016x, figure table's %016x", g, w)
	}
	if got.Precision != nil || got.Arrivals != nil {
		t.Fatalf("plain -figure grew a precision or arrivals block: %+v", got)
	}
}

// TestPrintSpecPrecision: -precision creates the precision block and
// the companion flags fill it in.
func TestPrintSpecPrecision(t *testing.T) {
	sp := printedSpec(t, "-figure", "8", "-reps", "2", "-shrink", "0.1", "-precision", "0.05", "-max-reps", "16")
	want := scenario.PrecisionSpec{RelHalfWidth: 0.05, MaxReplicates: 16}
	if sp.Precision == nil || *sp.Precision != want {
		t.Fatalf("precision block %+v, want %+v", sp.Precision, want)
	}
}

// TestPrintSpecArrivals: -arrivals creates the arrivals block; -load is
// converted from jobs per day to jobs per second.
func TestPrintSpecArrivals(t *testing.T) {
	sp := printedSpec(t, "-figure", "8", "-reps", "2", "-shrink", "0.1", "-arrivals", "poisson", "-jobs", "4", "-load", "8")
	a := sp.Arrivals
	if a == nil {
		t.Fatal("no arrivals block")
	}
	if a.Process != workload.ArrivalPoisson || a.Count != 4 || a.Rate != 8.0/86400 {
		t.Fatalf("arrivals block %+v, want poisson, 4 jobs, rate 8/day", *a)
	}
}

// TestListPolicies: -list-policies prints the policy table and exits
// before any spec is needed.
func TestListPolicies(t *testing.T) {
	out, err := run("-list-policies")
	if err != nil {
		t.Fatal(err)
	}
	for _, alias := range []string{"norc", "ig-el", "stf-eg"} {
		if !strings.Contains(out, "  "+alias+" ") {
			t.Errorf("alias %q not listed", alias)
		}
	}
}

// TestRunWritesJSONL: a -quiet -out run writes the same JSONL as
// campaign.Run and WriteJSONL on the same spec, and reports the records
// on stdout.
func TestRunWritesJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.jsonl")
	out, err := run("-figure", "8", "-reps", "1", "-shrink", "0.05", "-workers", "2", "-quiet", "-out", path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := experiments.FigureScenario("8", experiments.Params{Reps: 1, Shrink: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.Run(sp, campaign.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := res.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("CLI JSONL differs from campaign.Run + WriteJSONL")
	}
	if line := fmt.Sprintf("wrote %s (%d records)", path, len(res.Points)*len(res.Policies)); !strings.Contains(out, line) {
		t.Fatalf("stdout lacks %q:\n%s", line, out)
	}
}

// TestRealMainRejects: each invalid combination comes back as an error,
// with no panic and nothing printed. The adaptive-tuning flags without
// a precision block are refused like the online flags without an
// arrivals block, instead of being silently dropped.
func TestRealMainRejects(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "spec.json")
	f, err := os.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := exampleSpec().Encode(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	fig := []string{"-figure", "8", "-reps", "1", "-shrink", "0.05", "-print-spec"}
	for _, args := range [][]string{
		{"-spec", spec, "-figure", "8"},
		{"-reps", "2"},
		append([]string{"-load", "5"}, fig...),
		append([]string{"-max-reps", "50", "-batch", "4"}, fig...),
		append([]string{"-confidence", "0.99"}, fig...),
		append([]string{"-min-reps", "8"}, fig...),
		{"-spec", spec, "-batch", "4", "-print-spec"},
	} {
		out, err := run(args...)
		if err == nil || strings.HasPrefix(err.Error(), "panic") {
			t.Errorf("%v: want an error, got %v", args, err)
		}
		if out != "" {
			t.Errorf("%v: rejected run printed %q", args, out)
		}
	}
	if _, err := run(append([]string{"-max-reps", "50", "-batch", "4"}, fig...)...); err == nil ||
		!strings.Contains(err.Error(), "-max-reps") || !strings.Contains(err.Error(), "-batch") {
		t.Errorf("refusal does not name the flags: %v", err)
	}
}
