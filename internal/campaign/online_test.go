package campaign

import (
	"path/filepath"
	"strings"
	"testing"

	"cosched/internal/scenario"
	"cosched/internal/workload"
)

// onlineSpec is a small fault-heavy online scenario: Poisson arrivals on
// top of a two-task base pack, swept across two platform sizes.
func onlineSpec() scenario.Spec {
	sp := testSpec()
	sp.Name = "campaign-online-test"
	sp.Arrivals = &workload.ArrivalSpec{
		Process: workload.ArrivalPoisson,
		Count:   5,
		Rate:    1e-4,
		Rule:    "steal",
	}
	return sp
}

// TestOnlineCampaignDeterminism pins that online campaigns are
// bit-identical across worker counts, and that their JSONL carries the
// online block while offline output stays free of it.
func TestOnlineCampaignDeterminism(t *testing.T) {
	sp := onlineSpec()
	var outputs []string
	var first *Result
	for _, workers := range []int{1, 4} {
		res, err := Run(sp, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
		}
		outputs = append(outputs, jsonl(t, res))
	}
	if outputs[0] != outputs[1] {
		t.Fatal("online JSONL depends on the worker count")
	}
	if !strings.Contains(outputs[0], `"online":{"response":`) {
		t.Fatalf("online JSONL missing the online block: %s", outputs[0][:200])
	}

	off, err := Run(testSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(jsonl(t, off), `"online"`) {
		t.Fatal("offline JSONL grew an online block")
	}

	// Metric sanity on every cell: wait ≤ response, stretch ≥ 1,
	// utilization in (0, 1].
	for pi := range first.Points {
		for qi := range first.Policies {
			resp, ok := first.OnlineCell(pi, qi, MetricResponse)
			if !ok {
				t.Fatal("OnlineCell unavailable on an online campaign")
			}
			str, _ := first.OnlineCell(pi, qi, MetricStretch)
			wait, _ := first.OnlineCell(pi, qi, MetricWait)
			util, _ := first.OnlineCell(pi, qi, MetricUtilization)
			if wait.Mean > resp.Mean {
				t.Fatalf("cell (%d,%d): mean wait %v exceeds mean response %v", pi, qi, wait.Mean, resp.Mean)
			}
			if str.Mean < 1 {
				t.Fatalf("cell (%d,%d): mean stretch %v below 1", pi, qi, str.Mean)
			}
			if !(util.Mean > 0 && util.Mean <= 1) {
				t.Fatalf("cell (%d,%d): mean utilization %v outside (0,1]", pi, qi, util.Mean)
			}
		}
	}
	if _, ok := off.OnlineCell(0, 0, MetricResponse); ok {
		t.Fatal("OnlineCell returned data for an offline campaign")
	}
}

// TestOnlineCommonRandomNumbers pins that every policy of an online unit
// sees the same arrival schedule and fault stream: a policy-list change
// must not move the shared norc series.
func TestOnlineCommonRandomNumbers(t *testing.T) {
	a := onlineSpec()
	b := onlineSpec()
	b.Policies = []string{"norc", "stf-eg"}
	ra, err := Run(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for pi := range ra.Points {
		for rep := 0; rep < a.Replicates; rep++ {
			if ra.Makespans[pi][0][rep] != rb.Makespans[pi][0][rep] {
				t.Fatal("online unit streams depend on the policy list")
			}
			for k := range ra.online[pi][0] {
				if ra.online[pi][0][k][rep] != rb.online[pi][0][k][rep] {
					t.Fatal("online metrics depend on the policy list")
				}
			}
		}
	}
}

// TestOnlineManifestResume pins the wider online manifest records: a
// resumed online campaign restores makespans and online metrics without
// re-running journaled units.
func TestOnlineManifestResume(t *testing.T) {
	sp := onlineSpec()
	dir := t.TempDir()
	path := filepath.Join(dir, "online.manifest")

	man, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(sp, Options{Manifest: man})
	if err != nil {
		t.Fatal(err)
	}
	man.Close()
	wantJSONL := jsonl(t, want)

	man2, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	executed := 0
	got, err := Run(sp, Options{Manifest: man2, Progress: func(done, total int) {
		executed = done
	}})
	if err != nil {
		t.Fatal(err)
	}
	man2.Close()
	if got2 := jsonl(t, got); got2 != wantJSONL {
		t.Fatal("resumed online campaign diverges from the original")
	}
	total := len(want.Points) * sp.Replicates
	if executed != total {
		t.Fatalf("progress reported %d of %d restored units", executed, total)
	}

	// A mismatched offline manifest (different fingerprint) is refused.
	off := testSpec()
	man3, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	defer man3.Close()
	if _, err := Run(off, Options{Manifest: man3}); err == nil {
		t.Fatal("offline campaign accepted an online manifest")
	}
}

// TestOnlineAdaptive runs an online spec under the adaptive controller:
// deterministic across worker counts, and the stretch metric's CI gates
// stopping exactly like the makespan's.
func TestOnlineAdaptive(t *testing.T) {
	sp := onlineSpec()
	sp.Replicates = 1
	sp.Precision = &scenario.PrecisionSpec{
		RelHalfWidth:  0.2,
		MinReplicates: 4,
		MaxReplicates: 32,
		Batch:         4,
	}
	var first *Result
	var firstJSONL string
	for _, workers := range []int{1, 5} {
		res, err := Run(sp, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		out := jsonl(t, res)
		if first == nil {
			first, firstJSONL = res, out
			continue
		}
		if out != firstJSONL {
			t.Fatal("adaptive online JSONL depends on the worker count")
		}
	}
	if !first.Adaptive() || !first.Online() {
		t.Fatal("campaign lost its adaptive/online flags")
	}
	for pi := range first.Points {
		if first.Reps[pi] < 4 {
			t.Fatalf("point %d stopped below the floor: %d", pi, first.Reps[pi])
		}
		for qi := range first.Policies {
			if s, ok := first.OnlineCell(pi, qi, MetricStretch); !ok || s.N != first.Reps[pi] {
				t.Fatalf("stretch cell (%d,%d) folded %d of %d replicates", pi, qi, s.N, first.Reps[pi])
			}
		}
	}
}
