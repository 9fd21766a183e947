// Package rng is the simulator's random stream: a math/rand/v2 PCG-DXSM
// generator held by value, with the integer and float derivations of
// math/rand's (*Rand) applied to it.
//
// The derivations reproduce math/rand.(*Rand) over a Source64 whose
// Uint64 is the PCG output and whose Int63 is that output shifted right
// by one, draw for draw. Recorded simulations and traces therefore
// keep their values, while the hot loop calls concrete methods the
// compiler can inline instead of going through the math/rand Source
// interface.
package rng

import "math/rand/v2"

// Rand is a deterministic PCG-DXSM stream. The zero value is the stream
// seeded with (0, 0); use New for any other seed. A Rand is not safe for
// concurrent use.
type Rand struct {
	pcg rand.PCG
}

// New returns the stream seeded with the 128-bit PCG state (seed1,
// seed2), the same state rand.NewPCG(seed1, seed2) starts from.
func New(seed1, seed2 uint64) *Rand {
	r := &Rand{}
	r.pcg.Seed(seed1, seed2)
	return r
}

// Uint64 returns the next raw 64-bit PCG output.
func (r *Rand) Uint64() uint64 { return r.pcg.Uint64() }

// Int63 returns a non-negative 63-bit integer: the PCG output without
// its lowest bit.
func (r *Rand) Int63() int64 { return int64(r.pcg.Uint64() >> 1) }

// Int31 returns a non-negative 31-bit integer: the top 31 bits of Int63.
func (r *Rand) Int31() int32 { return int32(r.Int63() >> 32) }

// Float64 returns a float in [0, 1) as Int63()/2⁶³, drawing again in the
// 1-in-2⁵³ case where the division rounds up to 1.
func (r *Rand) Float64() float64 {
	for {
		if f := float64(r.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Int31n returns an integer in [0, n). Powers of two mask Int31; other
// n reject Int31 draws above the largest multiple of n, so the result is
// exactly uniform. It panics if n <= 0.
func (r *Rand) Int31n(n int32) int32 {
	if n <= 0 {
		panic("rng: invalid argument to Int31n")
	}
	if n&(n-1) == 0 {
		return r.Int31() & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := r.Int31()
	for v > max {
		v = r.Int31()
	}
	return v % n
}

// Intn returns an integer in [0, n): Int31n for n < 2³¹, and the same
// mask-or-reject rule over Int63 above that. It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(r.Int31n(int32(n)))
	}
	m := int64(n)
	if m&(m-1) == 0 {
		return int(r.Int63() & (m - 1))
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(m))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return int(v % m)
}
