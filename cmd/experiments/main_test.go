package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cosched/internal/campaign"
	"cosched/internal/experiments"
)

// TestRealMainWritesFiguresAndReport drives the CLI end to end: the
// figure files must be exactly what the library produces for the same
// parameters, and the report header must state the parameters the run
// actually used.
func TestRealMainWritesFiguresAndReport(t *testing.T) {
	out := t.TempDir()
	args := []string{"-figure", "5a,9", "-reps", "2", "-seed", "7", "-shrink", "0.05", "-quiet", "-out", out}
	if err := realMain(args, io.Discard); err != nil {
		t.Fatal(err)
	}
	read := func(name string) string {
		t.Helper()
		raw, err := os.ReadFile(filepath.Join(out, name))
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	pr := experiments.Params{Reps: 2, Seed: 7, Shrink: 0.05}

	sp, err := experiments.FigureScenario("5a", pr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.Run(sp, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	table, err := res.Table()
	if err != nil {
		t.Fatal(err)
	}
	if got := read("fig5a.csv"); got != table.CSV() {
		t.Fatalf("fig5a.csv differs from campaign.Run(FigureScenario(\"5a\")):\n%s\nvs\n%s", got, table.CSV())
	}

	fig9, err := experiments.Figure9(pr)
	if err != nil {
		t.Fatal(err)
	}
	if read("fig9a.csv") != fig9.Makespan.CSV() || read("fig9b.csv") != fig9.StdDev.CSV() {
		t.Fatal("fig9a.csv/fig9b.csv differ from Figure9's tables")
	}

	md := read("EXPERIMENTS.md")
	header := md[:strings.Index(md, "## Figure")]
	for _, want := range []string{"2 replicates", "seed 7", "shrink 0.05"} {
		if !strings.Contains(header, want) {
			t.Errorf("EXPERIMENTS.md header does not state %q:\n%s", want, header)
		}
	}
	for _, want := range []string{"## Figure 5a", "**Shape checks.**", "**Overall: "} {
		if !strings.Contains(md, want) {
			t.Errorf("EXPERIMENTS.md lacks %q", want)
		}
	}
	if !strings.Contains(md, "regenerate with `experiments -figure 13a`") {
		t.Error("EXPERIMENTS.md has no stub for a figure the run skipped")
	}
}

func TestRealMainRejectsDefaultedParams(t *testing.T) {
	for _, args := range [][]string{
		{"-reps", "0"},
		{"-seed", "0"},
		{"-shrink", "0"},
		{"-shrink", "1.5"},
		{"-figure", "nope"},
		{"-figure", "9b"},
	} {
		args = append(args, "-quiet", "-out", t.TempDir())
		if err := realMain(args, io.Discard); err == nil {
			t.Errorf("realMain(%v) accepted", args)
		}
	}
}
