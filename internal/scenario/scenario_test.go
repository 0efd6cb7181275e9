package scenario

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"cosched/internal/core"
	"cosched/internal/workload"
)

// testSpec is a small valid two-axis scenario.
func testSpec() Spec {
	w := workload.Default()
	w.N = 2
	w.P = 8
	w.MTBFYears = 5
	return Spec{
		Name:       "unit",
		Title:      "unit scenario",
		XLabel:     "#procs",
		Workload:   w,
		Policies:   []string{"norc", "ig-el", "ff-el"},
		Base:       "norc",
		Replicates: 2,
		Seed:       7,
		Axes: []Axis{
			{Param: ParamP, Values: []float64{8, 12, 16}},
			{Param: ParamMTBF, Values: []float64{5, 10}},
		},
	}
}

func TestSpecRoundTrip(t *testing.T) {
	sp := testSpec()
	sp.Failure = FailureSpec{Law: "weibull", Shape: 0.7}
	sp.Labels = []string{"base", "greedy", "bound"}
	sp.Precision = &PrecisionSpec{RelHalfWidth: 0.02, Confidence: 0.9, MinReplicates: 4, MaxReplicates: 100, Batch: 5}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sp.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sp, back) {
		t.Fatalf("round trip lost information:\n%+v\nvs\n%+v", sp, back)
	}
	// Decode must reject unknown fields — typos in hand-written specs.
	if _, err := Decode(strings.NewReader(`{"name":"x","replicas":3}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestExpandCartesian(t *testing.T) {
	points, err := testSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("3×2 grid expanded to %d points", len(points))
	}
	// Row-major order, first axis outermost, x = first-axis value.
	wantX := []float64{8, 8, 12, 12, 16, 16}
	wantMTBF := []float64{5, 10, 5, 10, 5, 10}
	for i, pt := range points {
		if pt.Index != i {
			t.Fatalf("point %d has index %d", i, pt.Index)
		}
		if pt.X != wantX[i] || pt.Set[ParamMTBF] != wantMTBF[i] {
			t.Fatalf("point %d = (x=%v, mtbf=%v), want (%v, %v)",
				i, pt.X, pt.Set[ParamMTBF], wantX[i], wantMTBF[i])
		}
		if pt.Spec.P != int(wantX[i]) || pt.Spec.MTBFYears != wantMTBF[i] {
			t.Fatalf("point %d workload not overridden: %+v", i, pt.Spec)
		}
		if pt.Spec.N != 2 {
			t.Fatalf("point %d lost base workload fields", i)
		}
	}
}

func TestExpandExplicitAndEmpty(t *testing.T) {
	sp := testSpec()
	sp.Axes = nil
	sp.Points = []Point{
		{X: 1, Set: map[string]float64{ParamP: 8}},
		{X: 2, Set: map[string]float64{ParamP: 12, ParamN: 3}},
	}
	points, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 || points[1].Spec.P != 12 || points[1].Spec.N != 3 {
		t.Fatalf("explicit points misexpanded: %+v", points)
	}

	sp.Points = nil
	points, err = sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 || points[0].Spec != sp.Workload {
		t.Fatalf("empty grid must yield the base workload, got %+v", points)
	}

	sp.Points = []Point{{X: 1}}
	sp.Axes = []Axis{{Param: ParamP, Values: []float64{8}}}
	if _, err := sp.Expand(); err == nil {
		t.Fatal("axes+points accepted")
	}
}

func TestExpandRejectsUnknownParam(t *testing.T) {
	sp := testSpec()
	sp.Axes = []Axis{{Param: "warp", Values: []float64{1}}}
	if _, err := sp.Expand(); err == nil || !strings.Contains(err.Error(), "warp") {
		t.Fatalf("unknown axis param not rejected: %v", err)
	}
}

func TestParsePolicy(t *testing.T) {
	cases := map[string]struct {
		pol core.Policy
		ff  bool
	}{
		"norc":      {core.NoRedistribution, false},
		"IG-EG":     {core.IGEndGreedy, false},
		"ig-el":     {core.IGEndLocal, false},
		"stf-eg":    {core.STFEndGreedy, false},
		"stf-el":    {core.STFEndLocal, false},
		"el":        {core.Policy{OnEnd: core.EndLocal}, false},
		"ff-el":     {core.Policy{OnEnd: core.EndLocal}, true},
		"ff-norc":   {core.NoRedistribution, true},
		"ff-stf-eg": {core.STFEndGreedy, true},
	}
	for name, want := range cases {
		ps, err := ParsePolicy(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ps.Policy != want.pol || ps.FaultFree != want.ff {
			t.Fatalf("%s parsed to %+v", name, ps)
		}
		if ps.Name != strings.ToLower(name) {
			t.Fatalf("%s: canonical name %q, want the lower-case alias", name, ps.Name)
		}
	}
	if _, err := ParsePolicy("yolo"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestParsePolicyCanonicalNames covers names outside the alias table:
// canonical Policy.String() compositions resolve and keep their
// case-sensitive spelling in Name (they must re-parse from manifests and
// JSONL records).
func TestParsePolicyCanonicalNames(t *testing.T) {
	for name, want := range map[string]struct {
		pol core.Policy
		ff  bool
	}{
		"IteratedGreedy-EndLocal":           {core.IGEndLocal, false},
		"IteratedGreedy-EndProportional":    {core.Policy{OnEnd: core.EndProportional, OnFailure: core.FailIteratedGreedy}, false},
		"ff-FailNone-EndProportional":       {core.Policy{OnEnd: core.EndProportional}, true},
		"ShortestTasksFirst-EndNone":        {core.Policy{OnFailure: core.FailShortestTasksFirst}, false},
		"NoRedistribution":                  {core.NoRedistribution, false},
		"IteratedGreedy-EndAllToLongest-no": {core.Policy{}, false}, // sentinel: must NOT parse
	} {
		ps, err := ParsePolicy(name)
		if strings.HasSuffix(name, "-no") {
			if err == nil {
				t.Fatalf("%s: bogus composition accepted", name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ps.Policy != want.pol || ps.FaultFree != want.ff {
			t.Fatalf("%s parsed to %+v", name, ps)
		}
		if _, err := ParsePolicy(ps.Name); err != nil {
			t.Fatalf("%s: resolved Name %q does not re-parse: %v", name, ps.Name, err)
		}
	}
}

func TestValidateCatchesBadSpecs(t *testing.T) {
	bad := []func(*Spec){
		func(s *Spec) { s.Replicates = 0 },
		func(s *Spec) { s.Policies = nil },
		func(s *Spec) { s.Policies = []string{"norc", "warp"} },
		func(s *Spec) { s.Labels = []string{"just-one"} },
		func(s *Spec) { s.Labels = []string{"a", "a", "a"} },
		func(s *Spec) { s.Base = "missing" },
		func(s *Spec) { s.Semantics = "quantum" },
		func(s *Spec) { s.Failure = FailureSpec{Law: "weibull"} }, // no shape
		func(s *Spec) { s.Failure = FailureSpec{Law: "pareto"} },
		func(s *Spec) { s.Axes[0].Values = []float64{7} }, // odd p
		func(s *Spec) { s.Axes[0].Values = []float64{2} }, // p < 2n
		func(s *Spec) { s.Axes[0].Values = nil },
		func(s *Spec) { s.Precision = &PrecisionSpec{MaxReplicates: 10} },  // no target
		func(s *Spec) { s.Precision = &PrecisionSpec{RelHalfWidth: 0.05} }, // no cap
		func(s *Spec) { s.Precision = &PrecisionSpec{RelHalfWidth: 0.05, MaxReplicates: 10, Confidence: 2} },
		func(s *Spec) { s.Precision = &PrecisionSpec{RelHalfWidth: 0.05, MaxReplicates: 4, MinReplicates: 9} },
	}
	for i, mutate := range bad {
		sp := testSpec()
		mutate(&sp)
		if err := sp.Validate(); err == nil {
			t.Fatalf("bad spec %d accepted", i)
		}
	}
	if err := testSpec().Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
}

func TestPrecisionDefaults(t *testing.T) {
	p := PrecisionSpec{RelHalfWidth: 0.05, MaxReplicates: 100}
	if p.BatchSize() != 8 || p.ConfidenceLevel() != 0.95 || p.MinReps() != 16 {
		t.Fatalf("defaults: batch=%d conf=%v min=%d", p.BatchSize(), p.ConfidenceLevel(), p.MinReps())
	}
	// The batch and floor clamp to the cap.
	small := PrecisionSpec{RelHalfWidth: 0.05, MaxReplicates: 3}
	if small.BatchSize() != 3 || small.MinReps() != 3 {
		t.Fatalf("cap clamping: batch=%d min=%d", small.BatchSize(), small.MinReps())
	}
	explicit := PrecisionSpec{RelHalfWidth: 0.05, MaxReplicates: 50, MinReplicates: 5, Batch: 10, Confidence: 0.99}
	if explicit.BatchSize() != 10 || explicit.ConfidenceLevel() != 0.99 || explicit.MinReps() != 5 {
		t.Fatalf("explicit values not honored: %+v", explicit)
	}

	sp := testSpec()
	if sp.ReplicateCap() != sp.Replicates {
		t.Fatalf("fixed ReplicateCap = %d, want %d", sp.ReplicateCap(), sp.Replicates)
	}
	sp.Precision = &PrecisionSpec{RelHalfWidth: 0.05, MaxReplicates: 77}
	if sp.ReplicateCap() != 77 {
		t.Fatalf("adaptive ReplicateCap = %d, want 77", sp.ReplicateCap())
	}
	if err := sp.Validate(); err != nil {
		t.Fatalf("valid precision block rejected: %v", err)
	}
}

func TestFingerprint(t *testing.T) {
	a, err := testSpec().Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := testSpec().Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("fingerprint not stable")
	}
	sp := testSpec()
	sp.Seed++
	c, err := sp.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("fingerprint ignores the seed")
	}
}

// TestArrivalsRoundTrip pins the online schema: a spec carrying an
// arrivals block round-trips losslessly, validates, attaches the block's
// arrival rule to every policy, and changes its fingerprint — while the
// same spec without the block keeps the offline policy set.
func TestArrivalsRoundTrip(t *testing.T) {
	w := workload.Default()
	w.N = 3
	w.P = 12
	base := Spec{
		Name:       "online-rt",
		Workload:   w,
		Policies:   []string{"norc", "ig-el"},
		Replicates: 2,
		Seed:       5,
	}
	online := base
	online.Arrivals = &workload.ArrivalSpec{
		Process: workload.ArrivalPoisson,
		Count:   8,
		Rate:    1e-4,
		Rule:    "greedy",
	}

	var buf bytes.Buffer
	if err := online.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Arrivals == nil || *back.Arrivals != *online.Arrivals {
		t.Fatalf("arrivals block did not round-trip: %+v", back.Arrivals)
	}

	fpOff, err := base.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fpOn, err := online.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fpOff == fpOn {
		t.Fatal("online and offline specs share a fingerprint")
	}

	pols, err := online.PolicySpecs()
	if err != nil {
		t.Fatal(err)
	}
	for _, ps := range pols {
		if ps.Policy.OnArrival != core.ArrivalGreedy {
			t.Fatalf("policy %s missing the scenario arrival rule: %+v", ps.Name, ps.Policy)
		}
	}
	offPols, err := base.PolicySpecs()
	if err != nil {
		t.Fatal(err)
	}
	for _, ps := range offPols {
		if ps.Policy.OnArrival != core.ArrivalNone {
			t.Fatalf("offline policy %s grew an arrival rule: %+v", ps.Name, ps.Policy)
		}
	}

	bad := online
	bad.Arrivals = &workload.ArrivalSpec{Process: "bogus"}
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid arrivals block validated")
	}
}

// TestArrivalCompositionPolicy pins that explicit "+<arrival>"
// compositions parse from specs and survive the scenario block's default
// (an explicit rule wins over the block's).
func TestArrivalCompositionPolicy(t *testing.T) {
	ps, err := ParsePolicy("IteratedGreedy-EndLocal+ArrivalGreedy")
	if err != nil {
		t.Fatal(err)
	}
	if ps.Policy.OnArrival != core.ArrivalGreedy {
		t.Fatalf("composition lost its arrival rule: %+v", ps.Policy)
	}
	w := workload.Default()
	w.N = 2
	w.P = 8
	sp := Spec{
		Name:       "explicit-arrival",
		Workload:   w,
		Policies:   []string{"IteratedGreedy-EndLocal+ArrivalGreedy", "ig-el"},
		Replicates: 1,
		Seed:       1,
		Arrivals:   &workload.ArrivalSpec{Process: workload.ArrivalPoisson, Count: 2, Rate: 1e-4, Rule: "steal"},
	}
	pols, err := sp.PolicySpecs()
	if err != nil {
		t.Fatal(err)
	}
	if pols[0].Policy.OnArrival != core.ArrivalGreedy {
		t.Fatalf("explicit composition overridden by the block: %+v", pols[0].Policy)
	}
	if pols[1].Policy.OnArrival != core.ArrivalSteal {
		t.Fatalf("alias policy missing the block rule: %+v", pols[1].Policy)
	}
}

// TestOfflineSpecRejectsArrivalRule: an explicit "+<arrival>" policy in
// a spec with no arrivals block names a rule that can never fire (the
// run would duplicate the base policy under another name), so
// PolicySpecs, Validate and Decode all refuse it and name the policy.
func TestOfflineSpecRejectsArrivalRule(t *testing.T) {
	const bad = "IteratedGreedy-EndLocal+ArrivalGreedy"
	sp := testSpec()
	sp.Policies = []string{"norc", bad}
	if _, err := sp.PolicySpecs(); err == nil || !strings.Contains(err.Error(), bad) {
		t.Fatalf("PolicySpecs: %v, want an error naming %s", err, bad)
	}
	if err := sp.Validate(); err == nil || !strings.Contains(err.Error(), bad) {
		t.Fatalf("Validate: %v, want an error naming %s", err, bad)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(sp); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(&buf); err == nil || !strings.Contains(err.Error(), bad) {
		t.Fatalf("Decode: %v, want an error naming %s", err, bad)
	}

	sp.Policies = []string{"norc", "IteratedGreedy-EndLocal"}
	if err := sp.Validate(); err != nil {
		t.Fatalf("offline spec without arrival rules rejected: %v", err)
	}
}
