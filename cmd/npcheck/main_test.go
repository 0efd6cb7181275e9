package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"strings"
	"testing"
)

// TestGolden pins npcheck's report for the canonical no-instance and for
// a seeded yes-instance, byte for byte.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-no"}, `3-Partition instance: B = 100, items = [27 27 27 39 40 40]
Theorem-2 reduction:  n = 8 tasks, p = 8 processors, deadline D = 41
model assumptions:    t_{i,j} non-increasing, work j·t_{i,j} non-decreasing ✓
exhaustive solver:    NO partition exists
conclusion:           no schedule of the Theorem-2 family meets the deadline;
                      the scheduling instance is a no-instance as the proof requires
`},
		{[]string{"-m", "2", "-seed", "7"}, `3-Partition instance: B = 1000, items = [255 266 277 320 425 457]
Theorem-2 reduction:  n = 8 tasks, p = 8 processors, deadline D = 458
model assumptions:    t_{i,j} non-increasing, work j·t_{i,j} non-decreasing ✓
exhaustive solver:    partition found: [[0 2 3] [1 4 5]]
proof schedule:       verified; makespan = 458 = D (deadline met exactly)

large-task ramp-up (procs over time):
  task 6:  [0,266)×1  [266,277)×2  [277,457)×3  [457,458)×4
  task 7:  [0,255)×1  [255,320)×2  [320,425)×3  [425,458)×4
`},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if err := realMain(tc.args, &stdout, &stderr); err != nil {
				t.Fatal(err)
			}
			if got := stdout.String(); got != tc.want {
				t.Fatalf("stdout:\n%s\nwant:\n%s", got, tc.want)
			}
			if stderr.Len() != 0 {
				t.Fatalf("stderr: %s", stderr.String())
			}
		})
	}
}

// TestBadFlag: an unknown flag is an error with usage on stderr and no
// report on stdout; -h is flag.ErrHelp, which main turns into exit 0.
func TestBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := realMain([]string{"-bogus"}, &stdout, &stderr)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		t.Fatalf("realMain(-bogus) = %v, want a flag error", err)
	}
	if stdout.Len() != 0 || !strings.Contains(stderr.String(), "Usage of npcheck") {
		t.Fatalf("stdout %q, stderr %q", stdout.String(), stderr.String())
	}
	if err := realMain([]string{"-h"}, io.Discard, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("realMain(-h) = %v, want flag.ErrHelp", err)
	}
}

// TestBadTripleCount: a triple count below one is refused before any
// report; a negative one used to panic in the instance generator.
func TestBadTripleCount(t *testing.T) {
	for _, m := range []string{"0", "-1"} {
		var stdout bytes.Buffer
		err := realMain([]string{"-m", m}, &stdout, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "-m must be at least 1") || stdout.Len() != 0 {
			t.Fatalf("-m %s: err %v, stdout %q", m, err, stdout.String())
		}
	}
}
