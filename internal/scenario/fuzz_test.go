package scenario

import (
	"bytes"
	"strings"
	"testing"

	"cosched/internal/workload"
)

// FuzzScenarioRoundTrip feeds arbitrary bytes through the spec pipeline:
// decoding must never panic, every spec that decodes (and therefore
// validates) must re-encode to a canonical form that is a fixpoint —
// decoding it again yields byte-identical JSON and an equal fingerprint.
// This is the lossless-round-trip property manifests and JSONL records
// rely on.
func FuzzScenarioRoundTrip(f *testing.F) {
	seed := func(sp Spec) {
		var buf bytes.Buffer
		if err := sp.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	base := Spec{
		Name:       "fuzz",
		Workload:   workload.Default(),
		Policies:   []string{"norc", "ig-el", "ff-el"},
		Base:       "norc",
		Replicates: 3,
		Seed:       7,
	}
	seed(base)
	withGrid := base
	withGrid.Failure = FailureSpec{Law: "weibull", Shape: 0.7}
	withGrid.Axes = []Axis{{Param: ParamP, Values: []float64{1000, 2000}}}
	seed(withGrid)
	adaptive := base
	adaptive.Points = []Point{{X: 1, Set: map[string]float64{ParamMTBF: 5}}}
	adaptive.Precision = &PrecisionSpec{RelHalfWidth: 0.05, MaxReplicates: 64, Batch: 4}
	seed(adaptive)
	online := base
	online.Arrivals = &workload.ArrivalSpec{
		Process: workload.ArrivalPoisson, Count: 8, Rate: 1e-4, Rule: "steal",
	}
	seed(online)
	onlineBatch := adaptive
	onlineBatch.Arrivals = &workload.ArrivalSpec{
		Process: workload.ArrivalBatch, Count: 6, Interval: 3600, BatchSize: 2, Jitter: 60, Rule: "greedy",
	}
	seed(onlineBatch)
	f.Add([]byte(`{"name":"x"}`))
	f.Add([]byte(`{"replicas":3}`))
	f.Add([]byte(`{"name":"x","workload":{"n":1,"p":2,"minf":2,"msup":3},"policies":["norc"],"replicates":1,"seed":0}`))
	f.Add([]byte(`{"name":"x","workload":{"n":1,"p":2,"minf":2,"msup":3},"policies":["norc"],"replicates":1,"seed":0,"arrivals":{"process":"trace","trace":"/nonexistent"}}`))
	f.Add([]byte(`{"name":"x","workload":{"n":1,"p":2,"minf":2,"msup":3},"policies":["norc"],"replicates":1,"seed":0,"arrivals":{"process":"poisson"}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := Decode(bytes.NewReader(data))
		if err != nil {
			return // invalid inputs only need to be rejected cleanly
		}
		var enc1 bytes.Buffer
		if err := sp.Encode(&enc1); err != nil {
			t.Fatalf("valid spec failed to encode: %v", err)
		}
		sp2, err := Decode(bytes.NewReader(enc1.Bytes()))
		if err != nil {
			t.Fatalf("canonical encoding rejected by Decode: %v\n%s", err, enc1.Bytes())
		}
		var enc2 bytes.Buffer
		if err := sp2.Encode(&enc2); err != nil {
			t.Fatalf("re-decoded spec failed to encode: %v", err)
		}
		if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
			t.Fatalf("canonical form is not a fixpoint:\n%s\nvs\n%s", enc1.Bytes(), enc2.Bytes())
		}
		fp1, err := sp.Fingerprint()
		if err != nil {
			t.Fatalf("valid spec failed to fingerprint: %v", err)
		}
		fp2, err := sp2.Fingerprint()
		if err != nil || fp1 != fp2 {
			t.Fatalf("fingerprint unstable across round trip: %x vs %x (%v)", fp1, fp2, err)
		}
		// What Decode accepted must expand and resolve: the campaign
		// runner calls these without re-checking.
		if _, err := sp.Expand(); err != nil {
			t.Fatalf("validated spec failed to expand: %v", err)
		}
		if _, err := sp.PolicySpecs(); err != nil {
			t.Fatalf("validated spec failed to resolve policies: %v", err)
		}
	})
}

// FuzzPolicyParse hammers ParsePolicy with arbitrary names: it must
// never panic, and every accepted name must yield a canonical Name that
// re-parses to the identical policy (the invariant manifests and JSONL
// records depend on).
func FuzzPolicyParse(f *testing.F) {
	for _, s := range []string{
		"norc", "ig-eg", "ig-el", "stf-eg", "stf-el", "ig-ep", "stf-ep",
		"eg", "el", "ep", "ff-el", "ff-norc", "FF-STF-EG", "ff-",
		"IteratedGreedy-EndLocal", "ff-FailNone-EndProportional",
		"NoRedistribution", "yolo", "", "ff", "-", "ff-ff-el",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, name string) {
		ps, err := ParsePolicy(name)
		if err != nil {
			return
		}
		if strings.TrimSpace(ps.Name) == "" {
			t.Fatalf("%q resolved to an empty canonical name", name)
		}
		back, err := ParsePolicy(ps.Name)
		if err != nil {
			t.Fatalf("%q: canonical name %q does not re-parse: %v", name, ps.Name, err)
		}
		if back.Policy != ps.Policy || back.FaultFree != ps.FaultFree {
			t.Fatalf("%q: canonical name %q re-parses to a different policy", name, ps.Name)
		}
	})
}
