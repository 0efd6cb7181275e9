package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"cosched/internal/core"
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

// TestListPolicies: -list-policies names every short alias and every
// canonical composition, so each name a spec or flag accepts is
// discoverable from the CLI.
func TestListPolicies(t *testing.T) {
	out, err := run("-list-policies")
	if err != nil {
		t.Fatal(err)
	}
	lines := map[string]bool{}
	for _, l := range strings.Split(out, "\n") {
		lines[strings.TrimSpace(l)] = true
	}
	for _, alias := range []string{"norc", "ig-eg", "ig-el", "stf-eg", "stf-el", "ig-ep", "stf-ep", "eg", "el", "ep"} {
		if !strings.Contains(out, "  "+alias+" ") {
			t.Errorf("alias %q not listed", alias)
		}
	}
	for _, name := range core.PolicyNames() {
		if !lines[name] {
			t.Errorf("composition %q not listed on its own line", name)
		}
	}
	for _, rules := range [][]string{core.EndRules(), core.FailRules(), core.ArrivalRules()} {
		if joined := strings.Join(rules, ", "); !strings.Contains(out, joined) {
			t.Errorf("rule list %q not listed", joined)
		}
	}
}

// TestArrivalRuleComposition: -arrival-rule attaches its rule to an
// alias policy, while a rule named in -policy wins over the flag.
func TestArrivalRuleComposition(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-policy", "stf-ep", "-arrivals", "poisson", "-arrival-rule", "greedy"},
			"ShortestTasksFirst-EndProportional+ArrivalGreedy"},
		{[]string{"-policy", "IteratedGreedy-EndLocal+ArrivalSteal", "-arrivals", "poisson", "-arrival-rule", "greedy"},
			"IteratedGreedy-EndLocal+ArrivalSteal"},
	} {
		out, err := run(tc.args...)
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if first, _, _ := strings.Cut(out, "\n"); first != "policy             "+tc.want {
			t.Errorf("%v: first line %q, want policy %s", tc.args, first, tc.want)
		}
		if !strings.Contains(out, "arrivals           10 submitted") {
			t.Errorf("%v: online summary missing:\n%s", tc.args, out)
		}
	}
}

// TestRealMainRejects: each invalid combination comes back as an error,
// with no panic, no exit and nothing printed.
func TestRealMainRejects(t *testing.T) {
	faults := filepath.Join(t.TempDir(), "faults.jsonl")
	for _, args := range [][]string{
		{"-policy", "yolo"},
		{"-arrivals", "poisson", "-arrival-rule", "bogus"},
		{"-policy", "ff-el", "-faults", faults},
		{"-policy", "IteratedGreedy-EndLocal+ArrivalGreedy"},
	} {
		out, err := run(args...)
		if err == nil || strings.HasPrefix(err.Error(), "panic") {
			t.Errorf("%v: want an error, got %v", args, err)
		}
		if out != "" {
			t.Errorf("%v: rejected run printed %q", args, out)
		}
	}
}
