package topology

import (
	"math/rand"
	"testing"
)

// This file proves the adjacency-primary representation is observably
// identical to the dense B×M matrix it replaced. denseRef reimplements
// the old representation — a [][]bool wiring plus the original
// matrix-walk Fingerprint/Equal/Connected — and every property test
// checks the real Network against it bit for bit. The reference
// fingerprints here are the exact algorithm persisted cache keys and
// cluster ring ownership were derived from, so a mismatch means a
// production key break.

// denseRef is the dense-matrix reference model of a network.
type denseRef struct {
	n, m, b int
	conn    [][]bool // conn[bus][module]
}

func newDenseRef(n, m, b int) *denseRef {
	ref := &denseRef{n: n, m: m, b: b, conn: make([][]bool, b)}
	for i := range ref.conn {
		ref.conn[i] = make([]bool, m)
	}
	return ref
}

// fingerprint is the original dense row-major packed FNV-1a hash,
// copied verbatim from the pre-flip implementation.
func (r *denseRef) fingerprint() uint64 {
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
	word(uint64(r.n))
	word(uint64(r.m))
	word(uint64(r.b))
	var acc uint64
	bits := 0
	for i := 0; i < r.b; i++ {
		for j := 0; j < r.m; j++ {
			if r.conn[i][j] {
				acc |= 1 << bits
			}
			bits++
			if bits == 64 {
				word(acc)
				acc, bits = 0, 0
			}
		}
	}
	if bits > 0 {
		word(acc)
	}
	return h
}

// withoutBus applies the dense form of bus-failure surgery.
func (r *denseRef) withoutBus(i int) *denseRef {
	out := newDenseRef(r.n, r.m, r.b-1)
	for bi := 0; bi < r.b; bi++ {
		switch {
		case bi < i:
			copy(out.conn[bi], r.conn[bi])
		case bi > i:
			copy(out.conn[bi-1], r.conn[bi])
		}
	}
	return out
}

// refFull etc. rebuild each scheme's dense wiring straight from the
// paper's definitions, independently of the constructors under test.
func refFull(n, m, b int) *denseRef {
	ref := newDenseRef(n, m, b)
	for i := range ref.conn {
		for j := range ref.conn[i] {
			ref.conn[i][j] = true
		}
	}
	return ref
}

func refSingleBus(n, m, b int) *denseRef {
	ref := newDenseRef(n, m, b)
	for j := 0; j < m; j++ {
		ref.conn[j*b/m][j] = true
	}
	return ref
}

func refPartialGroups(n, m, b, g int) *denseRef {
	ref := newDenseRef(n, m, b)
	mg, bg := m/g, b/g
	for q := 0; q < g; q++ {
		for i := q * bg; i < (q+1)*bg; i++ {
			for j := q * mg; j < (q+1)*mg; j++ {
				ref.conn[i][j] = true
			}
		}
	}
	return ref
}

func refKClasses(n, b int, classSizes []int) *denseRef {
	m := 0
	for _, sz := range classSizes {
		m += sz
	}
	ref := newDenseRef(n, m, b)
	k := len(classSizes)
	mod := 0
	for j := 1; j <= k; j++ {
		buses := j + b - k
		for c := 0; c < classSizes[j-1]; c++ {
			for i := 0; i < buses; i++ {
				ref.conn[i][mod] = true
			}
			mod++
		}
	}
	return ref
}

// checkAgainstDense asserts every observable of nw matches the dense
// reference: dimensions, Connected over all pairs, both adjacency
// directions, MemoryConnections, Validate, and the fingerprint.
func checkAgainstDense(t *testing.T, name string, nw *Network, ref *denseRef) {
	t.Helper()
	if nw.N() != ref.n || nw.M() != ref.m || nw.B() != ref.b {
		t.Fatalf("%s: dims %d×%d×%d, want %d×%d×%d", name, nw.N(), nw.M(), nw.B(), ref.n, ref.m, ref.b)
	}
	if err := nw.Validate(); err != nil {
		t.Fatalf("%s: Validate: %v", name, err)
	}
	total := 0
	for i := 0; i < ref.b; i++ {
		var scan []int
		for j := 0; j < ref.m; j++ {
			got, err := nw.Connected(i, j)
			if err != nil {
				t.Fatalf("%s: Connected(%d,%d): %v", name, i, j, err)
			}
			if got != ref.conn[i][j] {
				t.Fatalf("%s: Connected(%d,%d) = %v, dense says %v", name, i, j, got, ref.conn[i][j])
			}
			if ref.conn[i][j] {
				scan = append(scan, j)
				total++
			}
		}
		mods := nw.ModulesOnBus(i)
		if len(mods) != len(scan) {
			t.Fatalf("%s: ModulesOnBus(%d) = %v, dense scan = %v", name, i, mods, scan)
		}
		for k := range scan {
			if mods[k] != scan[k] {
				t.Fatalf("%s: ModulesOnBus(%d) = %v, dense scan = %v", name, i, mods, scan)
			}
		}
	}
	for j := 0; j < ref.m; j++ {
		var scan []int
		for i := 0; i < ref.b; i++ {
			if ref.conn[i][j] {
				scan = append(scan, i)
			}
		}
		buses := nw.BusesForModule(j)
		if len(buses) != len(scan) {
			t.Fatalf("%s: BusesForModule(%d) = %v, dense scan = %v", name, j, buses, scan)
		}
		for k := range scan {
			if buses[k] != scan[k] {
				t.Fatalf("%s: BusesForModule(%d) = %v, dense scan = %v", name, j, buses, scan)
			}
		}
	}
	if got := nw.MemoryConnections(); got != total {
		t.Fatalf("%s: MemoryConnections = %d, dense count = %d", name, got, total)
	}
	if got, want := nw.Fingerprint(), ref.fingerprint(); got != want {
		t.Fatalf("%s: Fingerprint = %#x, dense reference = %#x (cache-key break!)", name, got, want)
	}
}

func TestSparseMatchesDenseReferenceAllSchemes(t *testing.T) {
	type tc struct {
		name  string
		build func() (*Network, error)
		ref   *denseRef
	}
	cases := []tc{
		{"full-5-7-3", func() (*Network, error) { return Full(5, 7, 3) }, refFull(5, 7, 3)},
		{"full-16-16-8", func() (*Network, error) { return Full(16, 16, 8) }, refFull(16, 16, 8)},
		// M=67 with B=64: the bit stream crosses 64-bit word boundaries
		// mid-row, the case the streaming packer must get right.
		{"full-4-67-64", func() (*Network, error) { return Full(4, 67, 64) }, refFull(4, 67, 64)},
		{"single-8-8-4", func() (*Network, error) { return SingleBus(8, 8, 4) }, refSingleBus(8, 8, 4)},
		{"single-3-10-4", func() (*Network, error) { return SingleBus(3, 10, 4) }, refSingleBus(3, 10, 4)},
		{"single-2-5-7", func() (*Network, error) { return SingleBus(2, 5, 7) }, refSingleBus(2, 5, 7)},
		{"partial-8-12-6-g2", func() (*Network, error) { return PartialGroups(8, 12, 6, 2) }, refPartialGroups(8, 12, 6, 2)},
		{"partial-16-16-8-g4", func() (*Network, error) { return PartialGroups(16, 16, 8, 4) }, refPartialGroups(16, 16, 8, 4)},
		{"kclass-3-4-222", func() (*Network, error) { return KClasses(3, 4, []int{2, 2, 2}) }, refKClasses(3, 4, []int{2, 2, 2})},
		{"kclass-6-8-sizes", func() (*Network, error) { return KClasses(6, 8, []int{1, 0, 5, 2}) }, refKClasses(6, 8, []int{1, 0, 5, 2})},
		{"kclass-16-16-8-k8", func() (*Network, error) { return EvenKClasses(16, 16, 8, 8) }, refKClasses(16, 8, []int{2, 2, 2, 2, 2, 2, 2, 2})},
		// Wide sparse row: long zero runs exercise the skip-multiply path.
		{"single-2-1000-4", func() (*Network, error) { return SingleBus(2, 1000, 4) }, refSingleBus(2, 1000, 4)},
		// Contiguous rows spanning several words, starting and ending
		// mid-word: the masked whole-word path.
		{"full-4-200-3", func() (*Network, error) { return Full(4, 200, 3) }, refFull(4, 200, 3)},
		// Rows ending exactly on a word boundary.
		{"full-4-64-3", func() (*Network, error) { return Full(4, 64, 3) }, refFull(4, 64, 3)},
		{"partial-4-300-6-g3", func() (*Network, error) { return PartialGroups(4, 300, 6, 3) }, refPartialGroups(4, 300, 6, 3)},
		{"kclass-4-3-sizes", func() (*Network, error) { return KClasses(4, 3, []int{70, 60, 70}) }, refKClasses(4, 3, []int{70, 60, 70})},
		{"custom-mixed-rows", func() (*Network, error) { return Custom(2, mixedRowsRef().conn) }, mixedRowsRef()},
	}
	for _, c := range cases {
		nw, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		checkAgainstDense(t, c.name, nw, c.ref)
	}
}

// mixedRowsRef wires contiguous rows (one spanning words from mid-word
// to mid-word, one covering exactly word 5 of the bit stream) around a
// non-contiguous row, so both fingerprint paths feed one accumulator.
func mixedRowsRef() *denseRef {
	ref := newDenseRef(2, 150, 3)
	for j := 10; j <= 140; j++ {
		ref.conn[0][j] = true
	}
	for j := 0; j < 150; j++ {
		ref.conn[1][j] = j != 75
	}
	for j := 20; j < 84; j++ { // bits 320..383 of the B·M stream
		ref.conn[2][j] = true
	}
	return ref
}

func TestSparseMatchesDenseReferenceRandomCustom(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	for trial := 0; trial < 60; trial++ {
		b := 1 + rng.Intn(9)
		m := 1 + rng.Intn(70) // crosses the 64-bit word boundary regularly
		n := 1 + rng.Intn(6)
		ref := newDenseRef(n, m, b)
		density := rng.Float64()
		for i := 0; i < b; i++ {
			for j := 0; j < m; j++ {
				ref.conn[i][j] = rng.Float64() < density
			}
		}
		// Ensure every module reachable (Custom's invariant).
		for j := 0; j < m; j++ {
			ref.conn[rng.Intn(b)][j] = true
		}
		nw, err := Custom(n, ref.conn)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkAgainstDense(t, "random-custom", nw, ref)

		// Equal must agree with dense comparison: identical wiring is
		// Equal, and flipping any one cell breaks it.
		again, err := Custom(n, ref.conn)
		if err != nil {
			t.Fatal(err)
		}
		if !nw.Equal(again) || !again.Equal(nw) {
			t.Fatalf("trial %d: identical wirings not Equal", trial)
		}
		fi, fj := rng.Intn(b), rng.Intn(m)
		ref.conn[fi][fj] = !ref.conn[fi][fj]
		if flipped, err := Custom(n, ref.conn); err == nil {
			if nw.Equal(flipped) {
				t.Fatalf("trial %d: wirings differing at (%d,%d) compare Equal", trial, fi, fj)
			}
			if nw.Fingerprint() == flipped.Fingerprint() {
				t.Errorf("trial %d: one-bit flip at (%d,%d) left fingerprint unchanged", trial, fi, fj)
			}
		}
		ref.conn[fi][fj] = !ref.conn[fi][fj]
	}
}

func TestSparseMatchesDenseReferenceWithoutBusChains(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type seed struct {
		name string
		nw   func() (*Network, error)
		ref  *denseRef
	}
	seeds := []seed{
		{"full", func() (*Network, error) { return Full(4, 9, 8) }, refFull(4, 9, 8)},
		{"partial", func() (*Network, error) { return PartialGroups(4, 12, 8, 4) }, refPartialGroups(4, 12, 8, 4)},
		{"kclass", func() (*Network, error) { return EvenKClasses(4, 8, 8, 4) }, refKClasses(4, 8, []int{2, 2, 2, 2})},
		{"single", func() (*Network, error) { return SingleBus(4, 16, 8) }, refSingleBus(4, 16, 8)},
	}
	for _, s := range seeds {
		nw, err := s.nw()
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		ref := s.ref
		// Chain surgeries down to one bus, checking the full observable
		// surface at every step. Surgery may strand modules; that is
		// part of the contract (InaccessibleModules) and the dense
		// reference models it identically.
		for nw.B() > 1 {
			i := rng.Intn(nw.B())
			next, err := nw.WithoutBus(i)
			if err != nil {
				t.Fatalf("%s: WithoutBus(%d): %v", s.name, i, err)
			}
			ref = ref.withoutBus(i)
			checkAgainstDense(t, s.name+"-degraded", next, ref)
			// Inaccessible modules are exactly the all-zero dense columns.
			var want []int
			for j := 0; j < ref.m; j++ {
				wired := false
				for bi := 0; bi < ref.b; bi++ {
					wired = wired || ref.conn[bi][j]
				}
				if !wired {
					want = append(want, j)
				}
			}
			got := next.InaccessibleModules()
			if len(got) != len(want) {
				t.Fatalf("%s: InaccessibleModules = %v, dense says %v", s.name, got, want)
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("%s: InaccessibleModules = %v, dense says %v", s.name, got, want)
				}
			}
			nw = next
		}
	}
}

// TestFingerprintPinnedValues pins absolute fingerprint values computed
// by the pre-flip dense implementation. These constants must never
// change: they anchor persisted cache keys and cluster ring ownership
// across process generations, independently of the in-test reference.
func TestFingerprintPinnedValues(t *testing.T) {
	pin := func(name string, nw *Network, err error, want uint64) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := nw.Fingerprint(); got != want {
			t.Errorf("%s: Fingerprint = %#x, pinned %#x", name, got, want)
		}
	}
	nw, err := Full(2, 2, 1)
	pin("full-2-2-1", nw, err, 0xd7d66321265c6807)
	nw, err = Full(16, 16, 8)
	pin("full-16-16-8", nw, err, 0x85d7edf7d6ccc93d)
	nw, err = SingleBus(8, 8, 4)
	pin("single-8-8-4", nw, err, 0x980434710b19a5fe)
	nw, err = PartialGroups(8, 12, 6, 2)
	pin("partial-8-12-6-g2", nw, err, 0x58e847c47598729b)
	nw, err = KClasses(3, 4, []int{2, 2, 2})
	pin("kclass-3-4-222", nw, err, 0x65659db658161d61)
}
