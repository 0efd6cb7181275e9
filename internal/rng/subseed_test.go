package rng

import "testing"

func TestSubSeedDeterministicAndSpread(t *testing.T) {
	if SubSeed(1, 2, 3) != SubSeed(1, 2, 3) {
		t.Fatal("SubSeed not deterministic")
	}
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		seen[SubSeed(1, i, 0)] = true
		seen[SubSeed(1, 0, i)] = true
	}
	if len(seen) != 1999 { // (1,0,0) counted once
		t.Fatalf("SubSeed collides on trivially different paths: %d distinct", len(seen))
	}
}

func TestSubSeedOrderSensitive(t *testing.T) {
	if SubSeed(1, 2, 3) == SubSeed(1, 3, 2) {
		t.Fatal("SubSeed ignores path order")
	}
	if SubSeed(1) == SubSeed(2) {
		t.Fatal("SubSeed ignores the master seed")
	}
	if SubSeed(1, 5) == SubSeed(1) {
		t.Fatal("SubSeed ignores path extension")
	}
}
