package sim

import (
	"math/bits"
	"unsafe"

	"m2hew/internal/channel"
	"m2hew/internal/metrics"
	"m2hew/internal/topology"
)

// netTables is the network-derived table cache both scratches embed: the
// shared message availability sets, the coverage target index, the
// channel count and the static candidate masks. load builds the
// inbound-candidate table only to derive these from it and keeps none of
// it: the runs resolve on the masks, and a node's inbound candidate count
// (the NeighborReserver hint) is its target index row length. The tables
// are keyed by network pointer; a caller that mutates a network in place
// between runs must reset the cache so they are rebuilt. A dynamic run
// resolves on each epoch's table instead of the static masks.
type netTables struct {
	nwKey    *topology.Network
	msgAvail []channel.Set
	// target is the coverage target index (CSR over the discoverable
	// links), shared read-only by every run's Coverage on this network. A
	// network switch allocates a new index and never rewrites the old one,
	// so a Coverage returned earlier stays valid.
	target   *metrics.TargetIndex
	channels int       // max channel ID of the network, plus one
	masks    candMasks // the inbound-candidate table compiled
}

// load points the cache at nw, rebuilding the tables when the network
// changed since the last run, and reports whether the cached tables were
// reused — the engine-internals scratch hit/miss counter. A cold build
// makes a constant number of allocations at any network size, the
// transient candidate table's included.
func (t *netTables) load(nw *topology.Network) (hit bool) {
	if t.nwKey == nw {
		return true
	}
	t.nwKey = nw
	cands := nw.InboundCandidates()
	t.msgAvail = sharedMsgAvail(nw)
	t.target = metrics.NewTargetIndexFromCandidates(cands)
	t.channels = 0
	if id, ok := nw.Universe().Max(); ok {
		t.channels = int(id) + 1
	}
	t.masks.compile(cands, t.channels)
	return false
}

// reset invalidates the cache; the masks keep their storage.
func (t *netTables) reset() {
	t.nwKey = nil
	t.msgAvail = nil
	t.target = nil
}

// TableBytes returns the memory the cached network tables hold, by
// capacity: the shared message sets (headers and word arena), the target
// index and the candidate masks, whose storage outlives a reset.
func (t *netTables) TableBytes() int64 {
	b := int64(cap(t.msgAvail))*int64(unsafe.Sizeof(channel.Set{})) + t.masks.bytes()
	for _, s := range t.msgAvail {
		b += int64(cap(s.Words())) * 8
	}
	if t.target != nil {
		b += t.target.Bytes()
	}
	return b
}

// sharedMsgAvail copies each node's available set once per network; every
// message from the same sender shares the copy (see radio.Message for the
// read-only contract). One copy per node replaces one clone per delivery,
// and the copies share one word arena, so the table costs two allocations
// at any n.
func sharedMsgAvail(nw *topology.Network) []channel.Set {
	out := make([]channel.Set, nw.N())
	words := 0
	for u := range out {
		words += len(nw.Avail(topology.NodeID(u)).Words())
	}
	arena := make([]uint64, words)
	words = 0
	for u := range out {
		avail := nw.Avail(topology.NodeID(u))
		if w := len(avail.Words()); w > 0 {
			out[u] = avail.CopyInto(channel.ArenaSet(arena[words : words+w : words+w]))
			words += w
		}
	}
	return out
}

// maskWord is one word of a listener's candidate mask on one channel: bit
// j is set iff NodeID 64·w+j is a candidate whose span holds the channel.
type maskWord struct {
	bits uint64
	w    int32
}

// candMasks is the one NodeID-space packing of a candidate table, read by
// both engines: for every (listener, channel) pair, the NodeID words
// occupied by the listener's candidates whose span holds the channel,
// ascending, each with those candidates' bits. A row holds at most one
// word per candidate, so the table is linear in the candidate table
// whatever n is and needs no size budget. Rows are ascending by From
// (InboundCandidates, DeriveGeometricCandidates and dynamic epoch tables
// guarantee it), so walking a row's set bits word by word visits the
// candidates in row order — the order every loss draw follows. The
// synchronous engine ANDs each entry with the slot's transmitter word
// e.w, on either path, the asynchronous resolver with the transmit bucket
// table's.
type candMasks struct {
	channels int
	off      []int32 // per row u·channels+c: first entry; len rows+1
	ents     []maskWord
	fill     []int32 // compile scratch, one per channel
}

// compile packs cands into m for channels channels (channel IDs at or past
// it are dropped, as no listener can tune to them), reusing m's storage:
// a recompile that fits m's capacity allocates nothing.
func (m *candMasks) compile(cands [][]topology.Candidate, channels int) {
	m.channels = channels
	m.off = resize(m.off, len(cands)*channels+1)
	m.fill = resize(m.fill, channels)
	off, fill := m.off, m.fill

	// Pass 1: count each row's distinct words, parked at off[r+1] until
	// the prefix sum. A row ascends by From, so a word repeats only back to
	// back: fill[c] holds the last word counted on channel c.
	off[0] = 0
	for u, row := range cands {
		base := u * channels
		for c := range fill {
			fill[c] = -1
			off[base+c+1] = 0
		}
		for _, cand := range row {
			w := int32(cand.From >> 6)
			for i, sw := range cand.Span.Words() {
				for sw != 0 {
					c := i*64 + bits.TrailingZeros64(sw)
					sw &= sw - 1
					if c >= channels {
						break
					}
					if fill[c] != w {
						fill[c] = w
						off[base+c+1]++
					}
				}
			}
		}
	}
	for r := 1; r < len(off); r++ {
		off[r] += off[r-1]
	}

	// Pass 2: fill the rows; fill[c] is now the next free entry of the
	// listener's channel-c row.
	m.ents = resize(m.ents, int(off[len(off)-1]))
	ents := m.ents
	for u, row := range cands {
		base := u * channels
		copy(fill, off[base:base+channels])
		for _, cand := range row {
			w := int32(cand.From >> 6)
			bit := uint64(1) << (uint(cand.From) & 63)
			for i, sw := range cand.Span.Words() {
				for sw != 0 {
					c := i*64 + bits.TrailingZeros64(sw)
					sw &= sw - 1
					if c >= channels {
						break
					}
					k := fill[c]
					if k > off[base+c] && ents[k-1].w == w {
						ents[k-1].bits |= bit
						continue
					}
					ents[k] = maskWord{bits: bit, w: w}
					fill[c]++
				}
			}
		}
	}
}

// bytes returns the memory the masks hold, by capacity.
func (m *candMasks) bytes() int64 {
	return int64(cap(m.off)+cap(m.fill))*4 + int64(cap(m.ents))*int64(unsafe.Sizeof(maskWord{}))
}

// row returns listener u's mask on channel c (empty past the table's
// channels).
//
//nd:hotpath
func (m *candMasks) row(u topology.NodeID, c channel.ID) []maskWord {
	if int(c) >= m.channels {
		return nil
	}
	r := int(u)*m.channels + int(c)
	return m.ents[m.off[r]:m.off[r+1]]
}

// resize returns s re-sliced to length n, reallocating only when its
// capacity falls short; contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
