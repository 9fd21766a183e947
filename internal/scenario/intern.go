package scenario

import (
	"encoding/binary"
	"sync"

	"multibus/internal/topology"
)

// The intern table maps a canonical network spec to one shared wired
// topology, so a request for a shape the process has already built
// neither wires nor hashes it again: the *topology.Network is immutable
// and memoizes its own fingerprint. Sharing is safe because nothing
// mutates a Network after construction (WithoutBus and the other
// surgery return copies).
//
// The bounds keep the table small whatever the request mix: a network
// whose M+B exceeds internMaxSize is built per call, and a full table is
// cleared wholesale before the next insert. A pristine scheme network
// stores O(M+B) words, so the table holds at most a few megabytes.
const (
	internMaxEntries = 64
	internMaxSize    = 2048
)

var interned = struct {
	sync.Mutex
	tab map[string]*topology.Network
}{tab: make(map[string]*topology.Network)}

// wire returns the topology for the canonical network spec n: the
// interned one when n's shape is within the table's size limit, a fresh
// construction otherwise.
func (n Network) wire() (*topology.Network, error) {
	// The single-dimension checks keep the sum from overflowing.
	if n.M > internMaxSize || n.B > internMaxSize || n.M+n.B > internMaxSize {
		return n.build()
	}
	var buf [64]byte
	key := n.appendInternKey(buf[:0])
	interned.Lock()
	nw := interned.tab[string(key)]
	interned.Unlock()
	if nw != nil {
		return nw, nil
	}
	// Build outside the lock; a racing builder of the same shape may
	// insert first, and then its network wins so every caller shares one.
	nw, err := n.build()
	if err != nil {
		return nil, err
	}
	interned.Lock()
	defer interned.Unlock()
	if prev := interned.tab[string(key)]; prev != nil {
		return prev, nil
	}
	if len(interned.tab) >= internMaxEntries {
		clear(interned.tab)
	}
	interned.tab[string(key)] = nw
	return nw, nil
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
