package scenario

import (
	"encoding/binary"
	"sync"

	"multibus/internal/analytic"
	"multibus/internal/topology"
)

// The intern table maps a canonical network spec to one shared wired
// topology and its classification, so a request for a shape the process
// has already built neither wires, hashes nor classifies it again: the
// *topology.Network is immutable and memoizes its own fingerprint, and
// the *analytic.Structure is read-only once built. Sharing is safe
// because nothing mutates either after construction (WithoutBus and the
// other surgery return copies).
//
// The bounds keep the table small whatever the request mix: a network
// whose M+B exceeds internMaxSize is built and classified per call, and
// a full table is cleared wholesale before the next insert. A pristine
// scheme network and its structure each store O(M+B) words, so the
// table holds at most 64 entries of O(M+B) ints, a few megabytes.
const (
	internMaxEntries = 64
	internMaxSize    = 2048
)

// shape is one wired, classified network: what every Build of a
// canonical spec shares.
type shape struct {
	network   *topology.Network
	structure *analytic.Structure
}

var interned = struct {
	sync.Mutex
	tab map[string]shape
}{tab: make(map[string]shape)}

// wire returns the shape of the canonical network spec n: the interned
// one when n is within the table's size limit, a fresh construction
// otherwise.
func (n Network) wire() (shape, error) {
	// The single-dimension checks keep the sum from overflowing.
	if n.M > internMaxSize || n.B > internMaxSize || n.M+n.B > internMaxSize {
		return n.newShape()
	}
	var buf [64]byte
	key := n.appendInternKey(buf[:0])
	interned.Lock()
	sh, ok := interned.tab[string(key)]
	interned.Unlock()
	if ok {
		return sh, nil
	}
	// Build outside the lock; a racing builder of the same shape may
	// insert first, and then its shape wins so every caller shares one.
	sh, err := n.newShape()
	if err != nil {
		return shape{}, err
	}
	interned.Lock()
	defer interned.Unlock()
	if prev, ok := interned.tab[string(key)]; ok {
		return prev, nil
	}
	if len(interned.tab) >= internMaxEntries {
		clear(interned.tab)
	}
	interned.tab[string(key)] = sh
	return sh, nil
}

// newShape wires and classifies the canonical network. Classify cannot
// fail on a pristine scheme network; its error is returned all the same.
func (n Network) newShape() (shape, error) {
	nw, err := n.build()
	if err != nil {
		return shape{}, err
	}
	s, err := analytic.Classify(nw)
	if err != nil {
		return shape{}, err
	}
	return shape{network: nw, structure: s}, nil
}

// appendInternKey appends the canonical spec's identity: every field
// build reads.
func (n Network) appendInternKey(b []byte) []byte {
	b = append(b, n.Scheme...)
	b = append(b, 0)
	for _, v := range [...]int{n.N, n.M, n.B, n.Groups, n.Classes, len(n.ClassSizes)} {
		b = binary.AppendUvarint(b, uint64(v))
	}
	for _, v := range n.ClassSizes {
		b = binary.AppendUvarint(b, uint64(v))
	}
	return b
}
