package rng

import (
	"math"
	"testing"
)

// reference is the textbook splitmix64 step, written independently of
// the package implementation.
func reference(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func TestStreamMatchesReferenceSplitmix64(t *testing.T) {
	var s Stream
	state := uint64(0)
	for i := 0; i < 1000; i++ {
		if got, want := s.Uint64(), reference(&state); got != want {
			t.Fatalf("draw %d: got %#x, want %#x", i, got, want)
		}
	}
}

// TestAtMatchesHistoricalFaultsimStreams pins the (seed, trial) stream
// derivation to the formula of the retired internal/faultsim injector,
// from which this package was extracted: root = splitmix64(seed·φ64)
// advanced once, trial stream = root + trial·0x2545f4914f6cdd1d. Every
// committed campaign seed depends on this exact mapping.
func TestAtMatchesHistoricalFaultsimStreams(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7, math.MaxInt64} {
		for _, trial := range []int{0, 1, 2, 999, 1 << 20} {
			legacy := uint64(seed) * 0x9e3779b97f4a7c15
			var burn Stream = Stream(legacy)
			burn.Uint64()
			want := uint64(burn) + uint64(trial)*0x2545f4914f6cdd1d
			if got := At(seed, trial); uint64(got) != want {
				t.Fatalf("At(%d, %d) = %#x, want %#x", seed, trial, got, want)
			}
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("draw %d out of [0,1): %v", i, f)
		}
	}
}

func TestStreamsAreDecorrelated(t *testing.T) {
	// Adjacent trial streams must not produce identical prefixes.
	a, b := At(1, 0), At(1, 1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent streams collided on %d of 100 draws", same)
	}
}

func TestDeterminism(t *testing.T) {
	x, y := At(9, 123), At(9, 123)
	for i := 0; i < 100; i++ {
		if x.Uint64() != y.Uint64() {
			t.Fatal("same (seed, trial) produced different sequences")
		}
	}
}
