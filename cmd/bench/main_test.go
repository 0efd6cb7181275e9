package main

import "testing"

// TestParseMedians feeds parse the output of a three-run benchmark: each
// metric is recorded as its median over the runs, the GOMAXPROCS suffix
// is stripped, and the environment lines are kept.
func TestParseMedians(t *testing.T) {
	out := `goos: linux
goarch: amd64
cpu: Test CPU
BenchmarkA-2   	     100	      3000 ns/op	      10 units/s	       0 B/op	       0 allocs/op
BenchmarkA-2   	     100	      1000 ns/op	      30 units/s	       0 B/op	       1 allocs/op
BenchmarkA-2   	     100	      2000 ns/op	      20 units/s	       0 B/op	       0 allocs/op
BenchmarkB-2   	      10	       500 ns/op
BenchmarkB-2   	      10	       700 ns/op
PASS
`
	led := parse(out)
	if led.Goos != "linux" || led.Goarch != "amd64" || led.CPU != "Test CPU" {
		t.Fatalf("environment = %q %q %q", led.Goos, led.Goarch, led.CPU)
	}
	want := map[string]map[string]float64{
		"BenchmarkA": {"ns/op": 2000, "units/s": 20, "B/op": 0, "allocs/op": 0},
		"BenchmarkB": {"ns/op": 600},
	}
	if len(led.Benchmarks) != len(want) {
		t.Fatalf("benchmarks = %v", led.Benchmarks)
	}
	for name, metrics := range want {
		got := led.Benchmarks[name]
		if len(got) != len(metrics) {
			t.Fatalf("%s: metrics = %v, want %v", name, got, metrics)
		}
		for unit, v := range metrics {
			if got[unit] != v {
				t.Errorf("%s %s = %v, want %v", name, unit, got[unit], v)
			}
		}
	}
}
