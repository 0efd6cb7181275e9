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
	if !strings.Contains(md, "**Overall: 9/9 shape checks pass.**") || !strings.Contains(md, "The shapes above all hold") {
		t.Error("an all-pass report must say the shapes hold")
	}
}

// TestReportCountsFailingChecks runs a figure whose shape checks do not
// all pass at this size: the divergence section must count the failures
// instead of claiming that every shape holds.
func TestReportCountsFailingChecks(t *testing.T) {
	out := t.TempDir()
	args := []string{"-figure", "5a", "-reps", "1", "-shrink", "0.05", "-quiet", "-out", out}
	if err := realMain(args, io.Discard); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(out, "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	md := string(raw)
	if !strings.Contains(md, "**Overall: 3/5 shape checks pass.**") {
		t.Fatalf("expected 3 of 5 checks to pass at this size:\n%s", md)
	}
	if strings.Contains(md, "all hold") {
		t.Error("report claims every shape holds while checks fail")
	}
	if !strings.Contains(md, "2 of 5 shape checks fail (marked ❌ above)") || strings.Count(md, "- ❌") != 2 {
		t.Error("divergence section does not count the failing checks")
	}
	if !strings.Contains(md, "three magnitudes differ") {
		t.Error("the known magnitude divergences are missing")
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
