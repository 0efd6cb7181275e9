package main

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// histQuantile estimates the q-quantile of a bucketed histogram: bounds
// are ascending upper bounds, counts holds one count per bucket plus the
// overflow bucket last. Values are interpolated linearly inside the
// bucket holding the quantile.
func histQuantile(bounds []float64, counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			if i >= len(bounds) { // overflow bucket: no upper bound to interpolate to
				return lo
			}
			return lo + (bounds[i]-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return bounds[len(bounds)-1]
}

// cpuTime returns the user+sys CPU time this process has used so far,
// its own and that of every child it has reaped.
func cpuTime() time.Duration {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)     // cannot fail for RUSAGE_SELF
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids) // cannot fail for RUSAGE_CHILDREN
	tv := func(t syscall.Timeval) time.Duration { return time.Duration(t.Nano()) }
	return tv(self.Utime) + tv(self.Stime) + tv(kids.Utime) + tv(kids.Stime)
}

// resetPeakRSS restarts the kernel's resident-set high-water mark of
// this process at its current size, so that peakRSSMB then reports the
// peak of what follows. Where the kernel offers no reset, the mark keeps
// covering the whole process lifetime.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: see above
}

// peakRSSMB returns the resident-set high-water mark of this process in
// MB since the last resetPeakRSS (or since it started); with children it
// adds the largest high-water mark among the children it has reaped.
func peakRSSMB(children bool) float64 {
	mb := 0.0
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
				if err == nil {
					mb = kb / 1024
				}
			}
		}
	}
	if mb == 0 {
		var self syscall.Rusage
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self) // cannot fail for RUSAGE_SELF
		mb = float64(self.Maxrss) / 1024                  // Linux reports KiB
	}
	if children {
		var kids syscall.Rusage
		_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids) // cannot fail for RUSAGE_CHILDREN
		mb += float64(kids.Maxrss) / 1024
	}
	return mb
}

// settle returns freed memory to the operating system between timed
// passes, so one pass's garbage neither inflates the next pass's
// high-water mark nor shifts its collection work, and restarts the
// high-water mark for the next pass.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()
}

// seededSample picks k distinct indices of [0, n) from the mix stream
// of seed, in ascending order.
func seededSample(seed uint64, n, k int) []int {
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	picked := make(map[int]bool, k)
	for i := uint64(0); len(picked) < k; i++ {
		picked[int(mix(seed, i)%uint64(n))] = true
	}
	out := make([]int, 0, k)
	for i := range picked {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// mix derives a sub-seed for one purpose from the run's seed.
func mix(seed uint64, salt uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + salt
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fileSize returns a file's size, 0 when it does not exist.
func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}
