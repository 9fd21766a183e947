package sim

import "multibus/internal/rng"

// EffectiveSeed normalizes a Config.Seed: the zero value selects the
// default seed 1, every other value is used as-is. It is the single
// place the default is defined; Run, RunReplications, and the sweep
// engine all route through it, so "seed 0" means the same run
// everywhere.
func EffectiveSeed(seed int64) int64 {
	if seed == 0 {
		return 1
	}
	return seed
}

// splitmix64 is the SplitMix64 finalizer (Steele, Lea & Flood 2014). It
// is a bijective avalanche mix: consecutive inputs map to
// statistically independent outputs, which is exactly what the seed
// derivation below needs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewSeededRand returns the deterministic stream for a seed, normalized
// through EffectiveSeed. It is the one seed-derivation path for the
// whole repo: the engine, façade helpers (multibus.RecordWorkload), the
// cmd/ tools (mbtrace) and the cluster prober's jitter all route
// through it, so "seed s" names the same stream everywhere.
func NewSeededRand(seed int64) *rng.Rand {
	return newRNG(EffectiveSeed(seed))
}

// newRNG builds the engine RNG for a (normalized) seed.
//
// Seed-derivation rule: a 64-bit seed s expands to the 128-bit PCG
// state (s, splitmix64(s)). PCG-DXSM treats the two words as
// independent state, so nearby seeds — RunReplications seeds
// replication i with base+i — land on unrelated streams: the second
// word differs by a full avalanche mix even when the first words are
// consecutive integers. Changing this rule invalidates recorded
// simulation numbers (BENCH_sim.json metrics are throughput, not
// values, and survive).
func newRNG(seed int64) *rng.Rand {
	u := uint64(seed)
	return rng.New(u, splitmix64(u))
}
