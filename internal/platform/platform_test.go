package platform

import (
	"testing"
	"testing/quick"

	"cosched/internal/rng"
)

func mustNew(t *testing.T, p int) *Platform {
	t.Helper()
	pl, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// procsOf lists the processors the task owns, ascending, via Owner.
func procsOf(pl *Platform, task int) []int {
	var procs []int
	for q := 0; q < pl.P(); q++ {
		if pl.Owner(q) == task {
			procs = append(procs, q)
		}
	}
	return procs
}

func TestNewValidation(t *testing.T) {
	for _, p := range []int{0, -2, 3, 7} {
		if _, err := New(p); err == nil {
			t.Fatalf("New(%d) should fail", p)
		}
	}
	pl := mustNew(t, 8)
	if pl.P() != 8 || pl.FreeProcs() != 8 {
		t.Fatalf("fresh platform wrong: P=%d free=%d", pl.P(), pl.FreeProcs())
	}
}

func TestAllocBasics(t *testing.T) {
	pl := mustNew(t, 8)
	if err := pl.Alloc(1, 4); err != nil {
		t.Fatal(err)
	}
	got := procsOf(pl, 1)
	if len(got) != 4 {
		t.Fatalf("granted %d processors, want 4", len(got))
	}
	if pl.Count(1) != 4 || pl.FreeProcs() != 4 {
		t.Fatalf("counts wrong: task=%d free=%d", pl.Count(1), pl.FreeProcs())
	}
	for _, q := range got {
		if pl.Owner(q^1) != 1 {
			t.Fatalf("buddy of %d not co-allocated", q)
		}
	}
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocErrors(t *testing.T) {
	pl := mustNew(t, 4)
	if err := pl.Alloc(0, 3); err == nil {
		t.Fatal("odd allocation accepted")
	}
	if err := pl.Alloc(0, 0); err == nil {
		t.Fatal("zero allocation accepted")
	}
	if err := pl.Alloc(-1, 2); err == nil {
		t.Fatal("negative task ID accepted")
	}
	if err := pl.Alloc(0, 6); err == nil {
		t.Fatal("over-allocation accepted")
	}
	// Failed allocation must not leak pairs.
	if pl.FreeProcs() != 4 {
		t.Fatalf("failed alloc leaked processors: free=%d", pl.FreeProcs())
	}
}

func TestReleaseLIFO(t *testing.T) {
	pl := mustNew(t, 8)
	pl.Alloc(2, 2)
	first := procsOf(pl, 2)
	pl.Alloc(2, 2)
	if err := pl.Release(2, 2); err != nil {
		t.Fatal(err)
	}
	if got := procsOf(pl, 2); len(got) != 2 || got[0] != first[0] || got[1] != first[1] {
		t.Fatalf("release not LIFO: task keeps %v, want %v", got, first)
	}
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseErrors(t *testing.T) {
	pl := mustNew(t, 4)
	pl.Alloc(1, 2)
	if err := pl.Release(1, 4); err == nil {
		t.Fatal("over-release accepted")
	}
	if err := pl.Release(1, 1); err == nil {
		t.Fatal("odd release accepted")
	}
	if err := pl.Release(9, 2); err == nil {
		t.Fatal("release from unknown task accepted")
	}
}

func TestReleaseAll(t *testing.T) {
	pl := mustNew(t, 12)
	pl.Alloc(3, 6)
	pl.ReleaseAll(3)
	if pl.Count(3) != 0 || pl.FreeProcs() != 12 || len(procsOf(pl, 3)) != 0 {
		t.Fatal("ReleaseAll did not free everything")
	}
	pl.ReleaseAll(3) // no-op on a task that owns nothing
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestResize(t *testing.T) {
	pl := mustNew(t, 16)
	for _, c := range []struct {
		name   string
		target int
	}{{"grow", 6}, {"shrink", 2}, {"no-op", 2}} {
		if err := pl.Resize(5, c.target); err != nil {
			t.Fatalf("%s resize: %v", c.name, err)
		}
		if got := procsOf(pl, 5); len(got) != c.target || pl.Count(5) != c.target {
			t.Fatalf("%s resize: task owns %v, want %d processors", c.name, got, c.target)
		}
	}
	if err := pl.Resize(5, 3); err == nil {
		t.Fatal("odd resize accepted")
	}
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOwnerPanicsOutOfRange(t *testing.T) {
	pl := mustNew(t, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Owner did not panic")
		}
	}()
	pl.Owner(4)
}

// TestRandomWorkloadInvariants drives random alloc/release/resize traffic
// and checks conservation and ownership after every step: each task's
// Count matches the processors Owner attributes to it.
func TestRandomWorkloadInvariants(t *testing.T) {
	src := rng.New(123)
	err := quick.Check(func(seed uint64) bool {
		src.Reseed(seed)
		p := (src.Intn(20) + 2) * 2
		pl, err := New(p)
		if err != nil {
			return false
		}
		nTasks := src.Intn(6) + 1
		for step := 0; step < 200; step++ {
			task := src.Intn(nTasks)
			switch src.Intn(3) {
			case 0:
				want := (src.Intn(4) + 1) * 2
				if want <= pl.FreeProcs() {
					if err := pl.Alloc(task, want); err != nil {
						return false
					}
				}
			case 1:
				if c := pl.Count(task); c > 0 {
					drop := (src.Intn(c/2) + 1) * 2
					if err := pl.Release(task, drop); err != nil {
						return false
					}
				}
			case 2:
				target := src.Intn(pl.FreeProcs()/2+pl.Count(task)/2+1) * 2
				if err := pl.Resize(task, target); err != nil || pl.Count(task) != target {
					return false
				}
			}
			if err := pl.Validate(); err != nil {
				return false
			}
			for id := 0; id < nTasks; id++ {
				if len(procsOf(pl, id)) != pl.Count(id) {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAllocRelease(b *testing.B) {
	pl, _ := New(4096)
	for i := 0; i < b.N; i++ {
		pl.Alloc(1, 64)
		pl.Release(1, 64)
	}
}

// TestReset verifies arena reuse: a platform reset to a new (smaller or
// larger) size must behave exactly like a fresh one, with all previous
// ownership forgotten.
func TestReset(t *testing.T) {
	pl := mustNew(t, 16)
	if err := pl.Alloc(0, 4); err != nil {
		t.Fatal(err)
	}
	if err := pl.Alloc(3, 6); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{8, 32, 16} {
		if err := pl.Reset(p); err != nil {
			t.Fatalf("Reset(%d): %v", p, err)
		}
		if pl.P() != p || pl.FreeProcs() != p {
			t.Fatalf("after Reset(%d): P=%d free=%d", p, pl.P(), pl.FreeProcs())
		}
		if pl.Count(0) != 0 || pl.Count(3) != 0 {
			t.Fatalf("Reset(%d) kept stale ownership", p)
		}
		if got := procsOf(pl, 3); len(got) != 0 {
			t.Fatalf("Reset(%d) still attributes processors %v to task 3", p, got)
		}
		if err := pl.Validate(); err != nil {
			t.Fatalf("Reset(%d): %v", p, err)
		}
		// The platform must be fully usable after the reset.
		if err := pl.Alloc(1, 4); err != nil {
			t.Fatal(err)
		}
		if got := procsOf(pl, 1); len(got) != 4 || got[0] != 0 {
			t.Fatalf("post-Reset alloc %v, want the low pairs", got)
		}
		if err := pl.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if err := pl.Reset(7); err == nil {
		t.Fatal("Reset accepted an odd processor count")
	}
	if err := pl.Reset(0); err == nil {
		t.Fatal("Reset accepted zero processors")
	}
}
