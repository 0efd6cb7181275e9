package core

import (
	"strings"
	"testing"

	"cosched/internal/failure"
	"cosched/internal/rng"
)

// TestPrunedScanCountsPinned pins the work of full runs on the
// Figure-8-like paper-scale instance (n = 100, P = 5000, the default
// workload), so the pruned-scan bound cannot silently switch off or
// lose strength: a weaker bound raises CandidateEvals and lowers
// PrunedScans. The counts are identical with Paranoia on. CandidateEvals
// counts evaluations, not commits: a grow that commits the candidate its
// scan just computed counts it once, and Algorithm 5's level rounds
// count the few keys they evaluate past a cut that the heap loop never
// reaches.
func TestPrunedScanCountsPinned(t *testing.T) {
	in := paperScaleInstance(t)
	for _, tc := range []struct {
		pol                      Policy
		decisions, evals, pruned int
	}{
		{IGEndLocal, 113, 46498, 3895},
		{IGEndGreedy, 113, 277980, 9},
	} {
		var got [2]Counters
		for k, paranoia := range []bool{false, true} {
			src, err := failure.NewRenewal(in.P, failure.Exponential{Lambda: in.Res.Lambda}, rng.New(8))
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(in, tc.pol, src, Options{Paranoia: paranoia})
			if err != nil {
				t.Fatalf("%v (Paranoia %v): %v", tc.pol, paranoia, err)
			}
			got[k] = res.Counters
		}
		if got[0] != got[1] {
			t.Fatalf("%v: Paranoia changed the counters: %+v vs %+v", tc.pol, got[0], got[1])
		}
		c := got[0]
		t.Logf("%v: decisions %d evals %d pruned %d failures %d", tc.pol, c.Decisions, c.CandidateEvals, c.PrunedScans, c.Failures)
		if c.Decisions != tc.decisions || c.CandidateEvals != tc.evals || c.PrunedScans != tc.pruned {
			t.Fatalf("%v: decisions/evals/pruned = %d/%d/%d, want %d/%d/%d", tc.pol,
				c.Decisions, c.CandidateEvals, c.PrunedScans, tc.decisions, tc.evals, tc.pruned)
		}
	}
}

// TestParanoiaCatchesUnsoundPrune hand-builds a decision whose pruned
// range holds an improving candidate: the longest task's post-
// redistribution checkpoint row is forged to jump at the top of the
// range, breaking the bound's premise that C_{i,j} does not increase in
// j, so the bound proves dead a range whose first candidate improves.
// skipDead prunes it either way; with Paranoia the re-check reports it
// and Run fails, without Paranoia nothing notices. The re-check counts
// no candidate evaluations.
func TestParanoiaCatchesUnsoundPrune(t *testing.T) {
	for _, paranoia := range []bool{false, true} {
		in := Instance{Tasks: synthPack(10, rng.New(5)), P: 100, Res: paperRes(5)}
		e := NewSimulator()
		if err := e.Reset(in, IGEndLocal, nil, Options{Paranoia: paranoia}); err != nil {
			t.Fatal(err)
		}
		elig := e.eligible(0)
		e.beginDecision(0, elig, -1)
		d := &e.d
		longest := elig[0]
		for _, i := range elig {
			if d.tUc[i] > d.tUc[longest] {
				longest = i
			}
		}
		lo, hi := d.sigmaNew[longest]+2, d.sigmaNew[longest]+4
		if d.uncountedCandidate(longest, lo) >= d.tUc[longest] {
			t.Fatalf("task %d does not improve with one more pair: no counterexample", longest)
		}
		d.bind(longest)
		forged := make([]float64, hi/2)
		forged[hi/2-1] = 1e30
		d.ckRow[longest] = forged
		evals := e.ctr.CandidateEvals
		if !d.skipDead(longest, lo, hi) {
			t.Fatal("the forged bound did not prune the range")
		}
		if e.ctr.PrunedScans != 1 || e.ctr.CandidateEvals != evals {
			t.Fatalf("Paranoia %v: pruned %d scans and counted %d evaluations, want 1 and 0",
				paranoia, e.ctr.PrunedScans, e.ctr.CandidateEvals-evals)
		}
		_, err := e.Run()
		if !paranoia {
			if err != nil {
				t.Fatalf("without Paranoia: %v", err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "pruned scan") {
			t.Fatalf("Run after an unsound prune: err = %v, want the pruned-scan report", err)
		}
	}
}
