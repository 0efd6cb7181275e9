package core_test

// Tests of the policy tables: name stability for the paper's
// combinations, round-tripping through PolicyByName, the name grammar,
// and the Decision API safeguards every rule runs under.

import (
	"strings"
	"testing"

	"cosched/internal/core"
	"cosched/internal/failure"
	"cosched/internal/rng"
	"cosched/internal/workload"
)

// TestPaperPolicyNamesStable pins the Policy.String() spellings that
// scenario specs and campaign fingerprints depend on.
func TestPaperPolicyNamesStable(t *testing.T) {
	want := map[string]core.Policy{
		"NoRedistribution":             core.NoRedistribution,
		"IteratedGreedy-EndGreedy":     core.IGEndGreedy,
		"IteratedGreedy-EndLocal":      core.IGEndLocal,
		"ShortestTasksFirst-EndGreedy": core.STFEndGreedy,
		"ShortestTasksFirst-EndLocal":  core.STFEndLocal,
	}
	for name, pol := range want {
		if got := pol.String(); got != name {
			t.Errorf("policy %v renders as %q, want %q", pol, got, name)
		}
		resolved, ok := core.PolicyByName(name)
		if !ok {
			t.Errorf("PolicyByName(%q) not found", name)
			continue
		}
		if resolved != pol {
			t.Errorf("PolicyByName(%q) = %v, want %v", name, resolved, pol)
		}
	}
}

// TestPolicyNamesRoundTrip requires every listed policy name to resolve
// back to a policy rendering the same name.
func TestPolicyNamesRoundTrip(t *testing.T) {
	names := core.PolicyNames()
	if len(names) == 0 {
		t.Fatal("no policies listed")
	}
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			t.Errorf("duplicate policy name %q", name)
		}
		seen[name] = true
		pol, ok := core.PolicyByName(name)
		if !ok {
			t.Errorf("listed policy %q does not resolve", name)
			continue
		}
		if got := pol.String(); got != name {
			t.Errorf("policy %q round-trips to %q", name, got)
		}
	}
	for _, must := range []string{"NoRedistribution", "IteratedGreedy-EndProportional"} {
		if !seen[must] {
			t.Errorf("PolicyNames misses %q", must)
		}
	}
}

// TestPolicyByNameUnknown checks the failure mode.
func TestPolicyByNameUnknown(t *testing.T) {
	if _, ok := core.PolicyByName("Bogus-EndRule"); ok {
		t.Fatal("bogus policy name resolved")
	}
}

// TestRuleLists checks the rule-name listings used by -list-policies.
func TestRuleLists(t *testing.T) {
	ends := strings.Join(core.EndRules(), ",")
	for _, want := range []string{"EndNone", "EndLocal", "EndGreedy", "EndProportional"} {
		if !strings.Contains(ends, want) {
			t.Errorf("EndRules %q misses %s", ends, want)
		}
	}
	fails := strings.Join(core.FailRules(), ",")
	for _, want := range []string{"FailNone", "ShortestTasksFirst", "IteratedGreedy"} {
		if !strings.Contains(fails, want) {
			t.Errorf("FailRules %q misses %s", fails, want)
		}
	}
}

// TestRuleNamesWellFormed: names key specs, JSONL records and
// fingerprints, and PolicyByName splits "<fail>-<end>+<arrival>" on the
// separators, so every rule name must be non-empty, free of '-' and
// '+', distinct from the "NoRedistribution" pseudo-name and unique
// within its table.
func TestRuleNamesWellFormed(t *testing.T) {
	for kind, names := range map[string][]string{
		"end":     core.EndRules(),
		"fail":    core.FailRules(),
		"arrival": core.ArrivalRules(),
	} {
		seen := map[string]bool{}
		for _, name := range names {
			if name == "" || strings.ContainsAny(name, "-+") || name == "NoRedistribution" {
				t.Errorf("%s rule name %q breaks the composition grammar", kind, name)
			}
			if seen[name] {
				t.Errorf("%s rule name %q is not unique", kind, name)
			}
			seen[name] = true
		}
	}
}

// proportionalInstance is a failure-heavy setup where EndProportional
// has free processors to apportion.
func proportionalInstance(t *testing.T) (core.Instance, workload.Spec) {
	t.Helper()
	spec := workload.Default()
	spec.N = 10
	spec.P = 60
	spec.MTBFYears = 3
	tasks, err := spec.Generate(rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	return core.Instance{Tasks: tasks, P: spec.P, Res: spec.Resilience()}, spec
}

// TestEndProportionalRuns exercises the non-paper heuristic end to end
// with Paranoia on: platform invariants hold after every event, the pack
// completes, and the policy actually redistributes.
func TestEndProportionalRuns(t *testing.T) {
	in, spec := proportionalInstance(t)
	src, err := failure.NewRenewal(in.P, failure.Exponential{Lambda: spec.Lambda()}, rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	pol := core.Policy{OnEnd: core.EndProportional, OnFailure: core.FailIteratedGreedy}
	res, err := core.Run(in, pol, src, core.Options{Paranoia: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatalf("suspicious makespan %v", res.Makespan)
	}
	if res.Counters.Redistributions == 0 {
		t.Fatal("EndProportional never redistributed in a failure-heavy run")
	}
}

// endAllToLongest is a deliberately naive end rule built purely on the
// exported Decision API: it hands every free pair to the single longest
// task unconditionally, with no candidate check.
func endAllToLongest(d *core.Decision) {
	elig := d.Eligible()
	if len(elig) == 0 {
		return
	}
	longest := elig[0]
	for _, i := range elig {
		if d.TU(i) > d.TU(longest) {
			longest = i
		}
	}
	for d.Avail() >= 2 {
		d.SetSigma(longest, d.Sigma(longest)+2)
	}
}

// TestExternalHeuristic runs the naive rule through a paranoid
// simulation: the engine must keep processor conservation even though
// the rule grows without candidate checks.
func TestExternalHeuristic(t *testing.T) {
	in, spec := proportionalInstance(t)
	src, err := failure.NewRenewal(in.P, failure.Exponential{Lambda: spec.Lambda()}, rng.New(78))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunWithEndRule(in, endAllToLongest, src, core.Options{Paranoia: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatalf("suspicious makespan %v", res.Makespan)
	}
}

// endOversubscribe tries to claim more processors than exist; SetSigma
// must panic rather than let the engine commit an impossible schedule.
func endOversubscribe(d *core.Decision) {
	elig := d.Eligible()
	if len(elig) == 0 {
		return
	}
	d.SetSigma(elig[0], 1<<20)
}

// TestDecisionOversubscribePanics verifies the conservation safeguard of
// the exported Decision API.
func TestDecisionOversubscribePanics(t *testing.T) {
	in, spec := proportionalInstance(t)
	src, err := failure.NewRenewal(in.P, failure.Exponential{Lambda: spec.Lambda()}, rng.New(79))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("oversubscribing SetSigma did not panic")
		}
	}()
	_, _ = core.RunWithEndRule(in, endOversubscribe, src, core.Options{})
	t.Fatal("run with an oversubscribing rule completed")
}
