package model

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"cosched/internal/rng"
)

// TestCacheConcurrentLazyFill hammers one shared cache entry and its
// views from many goroutines (run under -race): each queries random
// (task, even j, α) cells through the row kernel, Period, FFCheckpoints
// and FFTime, so rows grow while other goroutines read them, and every
// answer must equal the direct Resilience primitive bit for bit.
func TestCacheConcurrentLazyFill(t *testing.T) {
	const bigP = 96
	for _, tc := range compiledCases() {
		t.Run(tc.name, func(t *testing.T) {
			ch := NewCache(0)
			e, err := ch.Acquire(tc.tasks, tc.res, CostModel{}, bigP)
			if err != nil || e == nil && cacheable(tc.tasks) {
				t.Fatalf("acquire: %v", err)
			}
			var tables []*Compiled
			if e != nil {
				defer e.Release()
				tables = []*Compiled{e.Compiled(), e.View(10), e.View(47), e.View(64)}
			} else { // no entry: the table and its views directly
				c := mustCompile(t, tc.tasks, tc.res, bigP)
				tables = []*Compiled{c, c.view(10), c.view(47), c.view(64)}
			}
			var wg sync.WaitGroup
			errs := make(chan error, 8)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					src := rng.New(uint64(100 + g))
					var one [1]float64
					for it := 0; it < 1500; it++ {
						c := tables[src.Intn(len(tables))]
						i := src.Intn(len(c.tasks))
						j := 2 * (1 + src.Intn(c.maxJ/2))
						alpha := compiledAlphas[src.Intn(len(compiledAlphas))]
						task := tc.tasks[i]
						c.rawRange(i, alpha, j/2-1, j/2, one[:])
						if w := tc.res.ExpectedTimeRaw(task, j, alpha); math.Float64bits(one[0]) != math.Float64bits(w) {
							errs <- fmt.Errorf("P=%d task %d j %d α %v: raw %v, direct %v", c.p, i, j, alpha, one[0], w)
							return
						}
						if g, w := c.Period(i, j), tc.res.Period(task, j); math.Float64bits(g) != math.Float64bits(w) {
							errs <- fmt.Errorf("P=%d task %d j %d: Period %v, direct %v", c.p, i, j, g, w)
							return
						}
						if g, w := c.FFCheckpoints(i, j, alpha), tc.res.FFCheckpoints(task, j, alpha); g != w {
							errs <- fmt.Errorf("P=%d task %d j %d α %v: FFCheckpoints %d, direct %d", c.p, i, j, alpha, g, w)
							return
						}
						if g, w := c.FFTime(i, j, alpha), tc.res.FFTime(task, j, alpha); math.Float64bits(g) != math.Float64bits(w) {
							errs <- fmt.Errorf("P=%d task %d j %d α %v: FFTime %v, direct %v", c.p, i, j, alpha, g, w)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

// TestRowSnapshotImmutable: a row snapshot a reader captured keeps its
// exact bits while the row grows after it, through its own table and
// through a view that shares the rows.
func TestRowSnapshotImmutable(t *testing.T) {
	tc := compiledCases()[0]
	ch := NewCache(0)
	e, err := ch.Acquire(tc.tasks, tc.res, CostModel{}, 128)
	if err != nil || e == nil {
		t.Fatalf("acquire: %v", err)
	}
	defer e.Release()
	c, v := e.Compiled(), e.View(100)
	snap := c.failRow(0, 3)
	want := append([]failCell(nil), snap...)
	for _, need := range []int{4, 7, 20} {
		c.failRow(0, need)
		v.failRow(0, need+10)
	}
	c.failRow(0, 64)
	if got := c.failRow(0, 64); len(got) != 64 {
		t.Fatalf("row holds %d cells after a full read, want 64", len(got))
	}
	for k := range want {
		if snap[k] != want[k] {
			t.Fatalf("captured cell %d changed after later fills: %+v -> %+v", k, want[k], snap[k])
		}
	}
}

// TestViewSharesFailureRows: a view reads and fills its base's rows, so
// cells a view computed serve the base and every other view without a
// second fill.
func TestViewSharesFailureRows(t *testing.T) {
	tc := compiledCases()[0]
	ch := NewCache(0)
	e, err := ch.Acquire(tc.tasks, tc.res, CostModel{}, 64)
	if err != nil || e == nil {
		t.Fatalf("acquire: %v", err)
	}
	defer e.Release()
	c, v := e.Compiled(), e.View(20)
	v.FFTime(1, 20, 0.5)
	if got := filledCells(c); got != 10 {
		t.Fatalf("base holds %d failure cells after a view read 10, want 10", got)
	}
	row := v.failRow(1, 10)
	if base := c.failRow(1, 10); &base[0] != &row[0] {
		t.Fatal("base and view read different snapshots of one row")
	}
	if w := e.View(30); &w.failRow(1, 10)[0] != &row[0] {
		t.Fatal("a second view does not share the rows the first one filled")
	}
}

// TestFillsBoundedByReads pins the fill rule: a row holds at most
// fillGrowth times the cells read from it, never more than its table
// covers, and exact fills hold exactly what was read.
func TestFillsBoundedByReads(t *testing.T) {
	defer func(old int) { fillGrowth = old }(fillGrowth)
	tc := compiledCases()[0]
	for _, growth := range []int{1, 2} {
		fillGrowth = growth
		c, err := Compile(tc.tasks, tc.res, CostModel{}, 64)
		if err != nil {
			t.Fatal(err)
		}
		read := 0
		for need := 1; need <= 32; need++ {
			c.failRow(0, need)
			read = need
			if got := filledCells(c); got < read || got > min(growth*read, 32) {
				t.Fatalf("growth %d: %d cells filled after reading %d", growth, got, read)
			}
		}
	}
}
