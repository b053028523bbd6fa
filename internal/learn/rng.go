package learn

import "runtime"

// streamSeed derives the seed of the i-th parallel RNG stream from a master
// seed with a splitmix64-style finalizer. Workers that fit trees (or run
// synthetic LAL tasks) concurrently seed a rand.Rand with
// streamSeed(seed, i) for each unit of work, so the randomness a unit
// consumes depends only on (seed, i) — never on scheduling — which is what
// makes training bit-identical for any worker count.
func streamSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// EffectiveWorkers resolves a Workers configuration value: 0 (or negative)
// means one worker per available CPU, anything else is taken as given.
func EffectiveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}
