package rng

import (
	"math"
	"math/bits"
	"math/rand"
	randv2 "math/rand/v2"
	"testing"
)

// pcgSource is the math/rand Source64 over a PCG generator that Rand
// replaces: Uint64 is the PCG output and Int63 drops its lowest bit.
// rand.New over it is the reference stream.
type pcgSource struct{ pcg *randv2.PCG }

func (s *pcgSource) Uint64() uint64 { return s.pcg.Uint64() }
func (s *pcgSource) Int63() int64   { return int64(s.pcg.Uint64() >> 1) }
func (s *pcgSource) Seed(int64)     { panic("reference streams are never reseeded") }

func reference(s1, s2 uint64) *rand.Rand { return rand.New(&pcgSource{randv2.NewPCG(s1, s2)}) }

const draws = 1_000_000

// seeds spans small, large and equal-word PCG states.
var seeds = [][2]uint64{{1, 0x910a2dec89025cc1}, {42, 42}, {0, 0}, {^uint64(0), 1 << 63}}

func TestMatchesMathRand(t *testing.T) {
	methods := []struct {
		name string
		got  func(*Rand) uint64
		want func(*rand.Rand) uint64
	}{
		{"Uint64", func(r *Rand) uint64 { return r.Uint64() }, func(r *rand.Rand) uint64 { return r.Uint64() }},
		{"Int63", func(r *Rand) uint64 { return uint64(r.Int63()) }, func(r *rand.Rand) uint64 { return uint64(r.Int63()) }},
		{"Int31", func(r *Rand) uint64 { return uint64(r.Int31()) }, func(r *rand.Rand) uint64 { return uint64(r.Int31()) }},
		{"Float64", func(r *Rand) uint64 { return math.Float64bits(r.Float64()) }, func(r *rand.Rand) uint64 { return math.Float64bits(r.Float64()) }},
		{"Int31n(7)", func(r *Rand) uint64 { return uint64(r.Int31n(7)) }, func(r *rand.Rand) uint64 { return uint64(r.Int31n(7)) }},
		{"Int31n(1<<20)", func(r *Rand) uint64 { return uint64(r.Int31n(1 << 20)) }, func(r *rand.Rand) uint64 { return uint64(r.Int31n(1 << 20)) }},
	}
	for _, m := range methods {
		for _, s := range seeds {
			got, want := New(s[0], s[1]), reference(s[0], s[1])
			for i := 0; i < draws/len(seeds); i++ {
				if g, w := m.got(got), m.want(want); g != w {
					t.Fatalf("%s seed %v draw %d: got %d, want %d", m.name, s, i, g, w)
				}
			}
		}
	}
}

func TestIntnSmall(t *testing.T) {
	// n = 1…130 covers every power of two up to 128 (the mask path)
	// and the rejection path for everything between.
	got, want := New(3, 5), reference(3, 5)
	for n := 1; n <= 130; n++ {
		for i := 0; i < 8000; i++ {
			if g, w := got.Intn(n), want.Intn(n); g != w {
				t.Fatalf("Intn(%d) draw %d: got %d, want %d", n, i, g, w)
			}
		}
	}
}

func TestIntnLarge(t *testing.T) {
	// Near 2³¹ a draw is rejected up to half the time; above it Intn
	// switches to the 63-bit rule.
	ns := []int{1<<30 + 1, 1<<31 - 2, 1<<31 - 1, 1 << 30, 1 << 31, 1<<31 + 1, 1<<62 + 1, 1<<63 - 1}
	got, want := New(9, 13), reference(9, 13)
	for _, n := range ns {
		for i := 0; i < draws/len(ns); i++ {
			if g, w := got.Intn(n), want.Intn(n); g != w {
				t.Fatalf("Intn(%d) draw %d: got %d, want %d", n, i, g, w)
			}
		}
	}
}

func TestMixedSequence(t *testing.T) {
	// The simulator interleaves Float64 (rate and destination) with
	// Intn (arbitration) on one stream; a third, independent stream
	// picks the method and argument so every transition is exercised.
	got, want := New(17, 19), reference(17, 19)
	pick := randv2.New(randv2.NewPCG(23, 29))
	for i := 0; i < draws; i++ {
		var g, w uint64
		switch pick.IntN(6) {
		case 0:
			g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
		case 1:
			n := 1 + pick.IntN(130)
			g, w = uint64(got.Intn(n)), uint64(want.Intn(n))
		case 2:
			n := int32(1 + pick.IntN(1<<31-1))
			g, w = uint64(got.Int31n(n)), uint64(want.Int31n(n))
		case 3:
			g, w = uint64(got.Int63()), uint64(want.Int63())
		case 4:
			g, w = uint64(got.Int31()), uint64(want.Int31())
		default:
			g, w = got.Uint64(), want.Uint64()
		}
		if g != w {
			t.Fatalf("draw %d: got %d, want %d", i, g, w)
		}
	}
}

func TestZeroValueIsZeroSeed(t *testing.T) {
	var zero Rand
	want := reference(0, 0)
	for i := 0; i < 1000; i++ {
		if g, w := zero.Uint64(), want.Uint64(); g != w {
			t.Fatalf("draw %d: got %d, want %d", i, g, w)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			New(1, 1).Intn(n)
		}()
	}
}

// mul128 multiplies two 128-bit integers (hi, lo) modulo 2¹²⁸.
func mul128(aHi, aLo, bHi, bLo uint64) (uint64, uint64) {
	hi, lo := bits.Mul64(aLo, bLo)
	return hi + aHi*bLo + aLo*bHi, lo
}

// seedFor returns the seed whose first PCG output is out, by running
// one PCG-DXSM step backwards from the state (h, 1): with an odd low
// word of 1 the output's final multiply is the identity, and every
// other step of the output function and of the LCG is invertible.
// It forces the 1-in-2³¹ branches no run of a few million draws hits.
func seedFor(out uint64) (uint64, uint64) {
	const (
		mulHi, mulLo = 2549297995355413924, 4865540595714422341
		incHi, incLo = 6364136223846793005, 1442695040888963407
		cheapMul     = 0xda942042e4dd58b5
	)
	h := out
	h ^= h >> 48
	inv := uint64(cheapMul) // Newton's iteration doubles the correct low bits
	for i := 0; i < 6; i++ {
		inv *= 2 - cheapMul*inv
	}
	h *= inv
	h ^= h >> 32
	invHi, invLo := uint64(mulHi), uint64(mulLo)
	for i := 0; i < 7; i++ {
		pHi, pLo := mul128(mulHi, mulLo, invHi, invLo)
		lo, borrow := bits.Sub64(2, pLo, 0)
		hi, _ := bits.Sub64(0, pHi, borrow)
		invHi, invLo = mul128(invHi, invLo, hi, lo)
	}
	lo, borrow := bits.Sub64(1, incLo, 0)
	hi, _ := bits.Sub64(h, incHi, borrow)
	return mul128(hi, lo, invHi, invLo)
}

// deriver is the derivation API Rand shares with math/rand.(*Rand).
type deriver interface {
	Float64() float64
	Int31n(int32) int32
	Intn(int) int
}

func TestRareBranches(t *testing.T) {
	const max31 = 1<<31 - 1 - (1<<31)%3
	const n63 = 1<<31 + 1
	const max63 = 1<<63 - 1 - (1<<63)%n63
	cases := []struct {
		name  string
		first uint64 // forced first PCG output
		draw  func(deriver) uint64
	}{
		// Int63 = 2⁶³−1 divides to exactly 1.0, so Float64 draws again.
		{"Float64 resamples 1.0", ^uint64(0), func(r deriver) uint64 {
			return math.Float64bits(r.Float64())
		}},
		// Int31 = the largest accepted value, then the smallest rejected.
		{"Int31n(3) accepts max", max31 << 33, func(r deriver) uint64 {
			return uint64(r.Int31n(3))
		}},
		{"Int31n(3) rejects max+1", (max31 + 1) << 33, func(r deriver) uint64 {
			return uint64(r.Int31n(3))
		}},
		{"Intn(2³¹+1) accepts max", max63 << 1, func(r deriver) uint64 {
			return uint64(r.Intn(n63))
		}},
		{"Intn(2³¹+1) rejects max+1", (max63 + 1) << 1, func(r deriver) uint64 {
			return uint64(r.Intn(n63))
		}},
	}
	for _, tc := range cases {
		s1, s2 := seedFor(tc.first)
		if got := New(s1, s2).Uint64(); got != tc.first {
			t.Fatalf("%s: seedFor(%#x) yields first output %#x", tc.name, tc.first, got)
		}
		got, want := New(s1, s2), reference(s1, s2)
		if g, w := tc.draw(got), tc.draw(want); g != w {
			t.Errorf("%s: got %d, want %d", tc.name, g, w)
		}
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Errorf("%s: streams out of step afterwards: %#x vs %#x", tc.name, g, w)
		}
	}
}
