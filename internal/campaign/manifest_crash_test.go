package campaign

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cosched/internal/obs"
)

// TestManifestCrashRecoveryEveryOffset is the crash-recovery property
// test: take a completed campaign's journal and, for every byte offset
// k, resume from the first k bytes — as if the process (or machine,
// with sync appends) died mid-write. At every offset the resumed
// campaign must (a) produce output byte-identical to the uninterrupted
// run, (b) re-execute exactly the units the truncated journal no longer
// acknowledges — never losing an acknowledged unit, never double-running
// a restored one — and (c) leave behind a journal that restores every
// unit exactly once.
func TestManifestCrashRecoveryEveryOffset(t *testing.T) {
	sp := testSpec()
	sp.Replicates = 2
	sp.Axes = sp.Axes[:1] // 2 points × 2 reps = 4 units: short journal
	totalUnits := 4

	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.manifest")
	man, err := OpenManifest(refPath)
	if err != nil {
		t.Fatal(err)
	}
	man.SetSync(true)
	ref, err := Run(sp, Options{Workers: 1, Manifest: man})
	if err != nil {
		t.Fatal(err)
	}
	man.Close()
	want := jsonl(t, ref)
	blob, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}

	for k := 0; k <= len(blob); k++ {
		prefix := blob[:k]
		path := filepath.Join(dir, "crash.manifest")
		if err := os.WriteFile(path, prefix, 0o644); err != nil {
			t.Fatal(err)
		}
		expectRestored := restorableUnits(t, prefix)

		man, err := OpenManifest(path)
		if err != nil {
			t.Fatalf("offset %d: %v", k, err)
		}
		man.SetSync(true)
		m := obs.NewCampaign()
		res, err := Run(sp, Options{Workers: 1, Manifest: man, Metrics: m})
		if err != nil {
			t.Fatalf("offset %d: resume failed: %v", k, err)
		}
		man.Close()

		if got := jsonl(t, res); got != want {
			t.Fatalf("offset %d: resumed output diverges from uninterrupted run", k)
		}
		// UnitsExecuted excludes restored units, so this is exactly the
		// no-loss/no-double-run ledger: every acknowledged unit restored
		// (not re-run), every lost unit re-run (once).
		if executed := int(m.Snapshot().UnitsExecuted); executed != totalUnits-expectRestored {
			t.Fatalf("offset %d: executed %d units, want %d (journal acknowledged %d of %d)",
				k, executed, totalUnits-expectRestored, expectRestored, totalUnits)
		}
		// The repaired journal must now acknowledge every unit exactly
		// once (restore errors on duplicates or corrupt records).
		man2, err := OpenManifest(path)
		if err != nil {
			t.Fatal(err)
		}
		count := 0
		if _, err := man2.Restore(sp, 3, func(int, []float64) { count++ }, nil); err != nil {
			t.Fatalf("offset %d: repaired journal does not restore: %v", k, err)
		}
		man2.Close()
		if count != totalUnits {
			t.Fatalf("offset %d: repaired journal acknowledges %d units, want %d", k, count, totalUnits)
		}
	}
}

// restorableUnits computes, independently of the restore code, how many
// units a journal prefix still acknowledges: complete ('\n'-terminated)
// unit lines after a complete header, plus an unterminated tail line
// that still parses as one full JSON record (the lost-newline case —
// the data survived, only the terminator did not).
func restorableUnits(t *testing.T, prefix []byte) int {
	t.Helper()
	s := string(prefix)
	nl := strings.Count(s, "\n")
	if nl == 0 {
		return 0 // header incomplete (or parseable but unit-free): nothing acknowledged
	}
	n := nl - 1 // terminated lines minus the header
	if tail := s[strings.LastIndexByte(s, '\n')+1:]; tail != "" {
		var u manifestUnit
		if json.Unmarshal([]byte(tail), &u) == nil {
			n++ // complete JSON that lost only its newline: repaired, not dropped
		}
	}
	return n
}
