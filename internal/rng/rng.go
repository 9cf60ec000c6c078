// Package rng provides the counter-split splitmix64 streams of the
// repository's Monte-Carlo fault injection (sim's discrete-event
// campaigns). The generator is cheap, allocation-free and splittable:
// any (seed, index) pair addresses an independent stream by pure
// arithmetic, without generating the preceding ones — which is what
// makes seeded campaigns both reproducible and trivially
// parallelizable (workers jump straight to their trials' streams).
package rng

// Stream is a splitmix64 PRNG state. The zero value is a valid stream
// (the one New(…) derives for its particular seed mix); use New or At
// to obtain seeded streams.
type Stream uint64

// golden64 is the splitmix64 state increment (2⁶⁴/φ) and seedScramble
// decorrelates consecutive stream indices; both constants are fixed by
// the published splitmix64 algorithm and the stream derivation of the
// repository's first fault injector (since retired) — changing them
// would silently reshuffle every seeded campaign in the repository.
const (
	golden64     = 0x9e3779b97f4a7c15
	seedScramble = 0x2545f4914f6cdd1d
)

// Uint64 advances the stream and returns the next 64 random bits.
func (s *Stream) Uint64() uint64 {
	*s += golden64
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 draws a uniform sample in [0, 1) with 53 random bits.
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// New returns the root stream for a seed: the seed is spread over the
// state space by the golden-ratio multiplier and burned in with one
// advance, so nearby seeds do not yield overlapping streams.
func New(seed int64) Stream {
	s := Stream(uint64(seed) * golden64)
	s.Uint64()
	return s
}

// At returns the independent stream for a (seed, index) pair — index
// is typically a trial number. The split is a multiply-free state
// jump from the root stream, so per-trial streams cost nothing to
// derive and any trial's stream can be reconstructed in isolation.
func At(seed int64, index int) Stream {
	return New(seed) + Stream(uint64(index))*seedScramble
}
