package core_test

// Tests of the policy tables: name stability for the paper's
// combinations, round-tripping through PolicyByName and the name
// grammar. The Decision safeguards every rule runs under are tested in
// decision_test.go.

import (
	"strings"
	"testing"

	"cosched/internal/core"
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
