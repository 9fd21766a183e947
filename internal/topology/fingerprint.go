package topology

// Fingerprint returns a canonical 64-bit hash of the network's structure:
// the N×M×B dimensions and the full bus–module wiring bitset. Two
// networks with equal dimensions and identical wiring fingerprint
// identically regardless of which constructor built them (scheme labels,
// group/class bookkeeping, and failed-bus history are not hashed — they
// do not affect any evaluation, which reads only dimensions and wiring).
// It is the cache key the serving layer and the sweep memoizer hang
// request-model and simulation parameters off.
//
// The hash is 64-bit FNV-1a over a fixed-width little-endian encoding,
// so fingerprints are stable across processes and architectures. It is
// not cryptographic; collisions are possible in principle but need
// ~2^32 distinct topologies in one cache to become likely.
//
// The encoding is defined over the dense row-major (bus-major) B×M
// wiring bitset packed into 64-bit words, exactly as when the wiring was
// stored as a dense matrix — fingerprints are byte-identical across the
// representation flip, so persisted cache keys and cluster ring
// ownership survive it. The hash is *streamed* from the sorted
// adjacency rows: set bits drive the word accumulator directly, and runs
// of all-zero words between connections collapse into one multiplication
// by prime^(8·run) (FNV-1a absorbs a zero byte as a bare multiply), so
// the cost is O(connections + log(B·M)) rather than O(B·M) for sparse
// wirings. A Network is immutable, so the hash is computed on the first
// call and every later call (from any goroutine) returns the memo.
func (nw *Network) Fingerprint() uint64 {
	nw.fpOnce.Do(func() { nw.fp = nw.fingerprint() })
	return nw.fp
}

// fingerprint computes the hash Fingerprint memoizes.
func (nw *Network) fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	word := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime64
		}
	}
	// skipZeroWords absorbs k all-zero 64-bit words: h *= prime^(8k).
	skipZeroWords := func(k int) {
		p := uint64(prime64)
		for e := 8 * k; e > 0; e >>= 1 {
			if e&1 == 1 {
				h *= p
			}
			p *= p
		}
	}
	word(uint64(nw.n))
	word(uint64(nw.m))
	word(uint64(nw.b))
	var acc uint64
	cur := 0 // index of the word acc is accumulating
	for i := 0; i < nw.b; i++ {
		base := i * nw.m
		for _, j := range nw.modsOnBus[i] {
			g := base + j // global bit position in the B·M stream
			if w := g >> 6; w != cur {
				word(acc)
				acc = 0
				skipZeroWords(w - cur - 1)
				cur = w
			}
			acc |= 1 << (g & 63)
		}
	}
	totalWords := (nw.b*nw.m + 63) / 64
	word(acc) // the word holding the last connection (or word 0 if none)
	skipZeroWords(totalWords - cur - 1)
	return h
}
