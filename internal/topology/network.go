// Package topology models M²HeW network topologies: which nodes can hear
// each other, and which channels each node has available.
//
// A Network couples an undirected communication graph with per-node
// available channel sets A(u). From these it derives every parameter the
// paper's analysis uses: N (node count), S (largest available set), Δ (max
// per-channel degree), span(u,v) for each link, and ρ (minimum span-ratio,
// the paper's heterogeneity measure).
//
// Construction is two-phase: a generator builds the graph (geometric,
// Erdős–Rényi, grid, line, ring, clique, star, bridge), then a channel
// assigner decorates it with available sets (homogeneous, uniform subsets,
// Bernoulli subsets, spatial primary-user exclusion, or block-overlap with a
// controlled span-ratio). This mirrors how a real deployment decomposes:
// radio range determines the graph, spectrum sensing determines the sets.
package topology

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"m2hew/internal/channel"
)

// NodeID identifies a node; IDs are dense indexes 0..N-1.
type NodeID int

// Node is one radio node.
type Node struct {
	ID NodeID `json:"id"`
	// X, Y are plane coordinates for spatially generated networks; zero for
	// abstract graphs.
	X float64 `json:"x"`
	Y float64 `json:"y"`
	// Avail is the node's available channel set A(u).
	Avail channel.Set `json:"-"`
}

// Link is a directed link from one node to another. Discovery is directional
// in the paper — (u,v) and (v,u) are covered separately — so the simulator
// tracks directed links throughout.
type Link struct {
	From NodeID `json:"from"`
	To   NodeID `json:"to"`
}

// Network is an immutable-after-build M²HeW network instance.
type Network struct {
	nodes []Node
	adj   [][]NodeID // sorted adjacency lists
	// universe caches the union of all Avail sets. SetAvail clears
	// universeFresh, deferring the O(n) recomputation to the next Universe()
	// read: assigners call SetAvail once per node, and an eager refresh there
	// would make bulk channel assignment O(n²) — minutes at 100k nodes.
	// universeMu serializes the refresh, so concurrent first reads (trial
	// workers sharing one network) do not race on the cache.
	universe      channel.Set
	universeFresh atomic.Bool
	universeMu    sync.Mutex
	// spanOverride optionally restricts the span of specific undirected
	// edges below A(u)∩A(v), modeling diverse propagation characteristics
	// (an extension the paper mentions in Section II). Keys are canonical
	// (min,max) pairs.
	spanOverride map[[2]NodeID]channel.Set
	// dropped marks asymmetric directions: dropped[{v,u}] means v's
	// transmissions do not reach u even though u's reach v — the
	// asymmetric-communication-graph extension of the paper's Section V.
	// Keys are ordered (from, to) pairs.
	dropped map[[2]NodeID]bool
}

// ErrNoNodes reports construction of an empty network.
var ErrNoNodes = errors.New("topology: network has no nodes")

// newNetwork wires the base structure; generators use it.
func newNetwork(nodes []Node, edges [][2]NodeID) (*Network, error) {
	if len(nodes) == 0 {
		return nil, ErrNoNodes
	}
	n := len(nodes)
	for i, node := range nodes {
		if int(node.ID) != i {
			return nil, fmt.Errorf("topology: node %d has ID %d; IDs must be dense", i, node.ID)
		}
	}
	adj := make([][]NodeID, n)
	seen := make(map[[2]NodeID]bool, len(edges))
	for _, e := range edges {
		a, b := e[0], e[1]
		if a == b {
			return nil, fmt.Errorf("topology: self-loop at node %d", a)
		}
		if int(a) < 0 || int(a) >= n || int(b) < 0 || int(b) >= n {
			return nil, fmt.Errorf("topology: edge (%d,%d) out of range [0,%d)", a, b, n)
		}
		key := canonicalEdge(a, b)
		if seen[key] {
			continue
		}
		seen[key] = true
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	for _, neighbors := range adj {
		sort.Slice(neighbors, func(i, j int) bool { return neighbors[i] < neighbors[j] })
	}
	return &Network{nodes: nodes, adj: adj}, nil
}

func canonicalEdge(a, b NodeID) [2]NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]NodeID{a, b}
}

// N returns the number of nodes.
func (nw *Network) N() int { return len(nw.nodes) }

// Node returns node u. It panics for out-of-range IDs, which indicate a
// construction bug.
func (nw *Network) Node(u NodeID) Node {
	return nw.nodes[u]
}

// Nodes returns a copy of the node slice.
func (nw *Network) Nodes() []Node {
	out := make([]Node, len(nw.nodes))
	copy(out, nw.nodes)
	return out
}

// Universe returns the universal channel set (union of all available sets).
// The first read after a SetAvail recomputes the cached union under a lock,
// so any number of goroutines may call Universe concurrently — trial
// workers sharing one network do. Like every read, it must not run
// concurrently with SetAvail or another mutator: mutation belongs to
// single-threaded construction.
func (nw *Network) Universe() channel.Set {
	return nw.universeSet().Clone()
}

// universeSet returns the cached universal set, refreshing it first if a
// SetAvail made it stale. Shared storage — do not modify.
func (nw *Network) universeSet() channel.Set {
	if !nw.universeFresh.Load() {
		nw.universeMu.Lock()
		if !nw.universeFresh.Load() {
			var u channel.Set
			for _, node := range nw.nodes {
				u = u.UnionInto(node.Avail, u)
			}
			nw.universe = u
			nw.universeFresh.Store(true)
		}
		nw.universeMu.Unlock()
	}
	return nw.universe
}

// Avail returns A(u). The returned set shares storage with the network and
// must not be modified; Clone it first.
func (nw *Network) Avail(u NodeID) channel.Set { return nw.nodes[u].Avail }

// Neighbors returns the sorted neighbor list of u. The returned slice must
// not be modified.
func (nw *Network) Neighbors(u NodeID) []NodeID { return nw.adj[u] }

// AreNeighbors reports whether u and v share an edge.
func (nw *Network) AreNeighbors(u, v NodeID) bool {
	neighbors := nw.adj[u]
	i := sort.Search(len(neighbors), func(i int) bool { return neighbors[i] >= v })
	return i < len(neighbors) && neighbors[i] == v
}

// Span returns span(u,v): the channels on which the link between u and v can
// operate. Under the paper's similar-propagation assumption this equals
// A(u)∩A(v); a span override (RestrictSpan) can shrink it further. The empty
// set is returned for non-adjacent pairs.
func (nw *Network) Span(u, v NodeID) channel.Set {
	if !nw.AreNeighbors(u, v) {
		return channel.Set{}
	}
	span := nw.nodes[u].Avail.Intersect(nw.nodes[v].Avail)
	if nw.spanOverride != nil {
		if mask, ok := nw.spanOverride[canonicalEdge(u, v)]; ok {
			span = span.Intersect(mask)
		}
	}
	return span
}

// RestrictSpan limits the span of the undirected edge {u,v} to mask
// (intersected with A(u)∩A(v)), modeling channel-dependent propagation. It
// returns an error if u and v are not adjacent.
func (nw *Network) RestrictSpan(u, v NodeID, mask channel.Set) error {
	if !nw.AreNeighbors(u, v) {
		return fmt.Errorf("topology: restrict span of non-edge (%d,%d)", u, v)
	}
	if nw.spanOverride == nil {
		nw.spanOverride = make(map[[2]NodeID]channel.Set)
	}
	nw.spanOverride[canonicalEdge(u, v)] = mask.Clone()
	return nil
}

// Reaches reports whether a transmission by v can arrive at u: the two are
// adjacent and the v→u direction has not been dropped. For symmetric
// networks (no DropDirection calls) this equals AreNeighbors.
func (nw *Network) Reaches(v, u NodeID) bool {
	if !nw.AreNeighbors(v, u) {
		return false
	}
	return !nw.dropped[[2]NodeID{v, u}]
}

// DropDirection makes the link asymmetric: v's transmissions no longer
// reach u (u's transmissions still reach v unless dropped separately).
// Dropping both directions of an edge effectively removes it. It returns an
// error if u and v are not adjacent.
func (nw *Network) DropDirection(v, u NodeID) error {
	if !nw.AreNeighbors(v, u) {
		return fmt.Errorf("topology: drop direction of non-edge (%d,%d)", v, u)
	}
	if nw.dropped == nil {
		nw.dropped = make(map[[2]NodeID]bool)
	}
	nw.dropped[[2]NodeID{v, u}] = true
	return nil
}

// Symmetric reports whether no direction has been dropped.
func (nw *Network) Symmetric() bool { return len(nw.dropped) == 0 }

// SetAvail replaces A(u) and refreshes the universal set. Channel assigners
// use it during construction.
func (nw *Network) SetAvail(u NodeID, a channel.Set) {
	nw.nodes[u].Avail = a.Clone()
	nw.universeFresh.Store(false)
}

// undropped reports whether v's transmissions reach u across the edge
// {u,v}: the caller guarantees adjacency, so only dropped is consulted —
// and only when some direction was dropped at all.
func (nw *Network) undropped(v, u NodeID) bool {
	return nw.dropped == nil || !nw.dropped[[2]NodeID{v, u}]
}

// spanSize returns |span(u,v)| of the edge {u,v}; the caller guarantees
// adjacency. Only an overridden edge materializes its span.
func (nw *Network) spanSize(u, v NodeID) int {
	if nw.spanOverride != nil {
		if _, ok := nw.spanOverride[canonicalEdge(u, v)]; ok {
			return nw.Span(u, v).Size()
		}
	}
	return channel.OverlapCount(nw.nodes[u].Avail.Words(), nw.nodes[v].Avail.Words())
}

// edgeSpanContains reports whether channel c ∈ span(u,v) of the edge
// {u,v}, without allocating. The caller guarantees adjacency.
func (nw *Network) edgeSpanContains(u, v NodeID, c channel.ID) bool {
	if !nw.nodes[u].Avail.Contains(c) || !nw.nodes[v].Avail.Contains(c) {
		return false
	}
	if nw.spanOverride != nil {
		if mask, ok := nw.spanOverride[canonicalEdge(u, v)]; ok {
			return mask.Contains(c)
		}
	}
	return true
}

// DirectedLinks returns every directed link (u,v) whose transmissions can
// arrive (adjacent, direction not dropped), regardless of span. Order is
// deterministic: ascending (From, To).
func (nw *Network) DirectedLinks() []Link {
	links := make([]Link, 0, 2*nw.EdgeCount())
	for u := range nw.nodes {
		uid := NodeID(u)
		for _, v := range nw.adj[u] {
			if nw.undropped(uid, v) {
				links = append(links, Link{From: uid, To: v})
			}
		}
	}
	return links
}

// DiscoverableLinks returns the directed links with non-empty span — the
// links any neighbor-discovery algorithm can possibly cover, and therefore
// the completion target of every experiment.
func (nw *Network) DiscoverableLinks() []Link {
	links := make([]Link, 0, 2*nw.EdgeCount())
	for u := range nw.nodes {
		uid := NodeID(u)
		for _, v := range nw.adj[u] {
			if nw.undropped(uid, v) && nw.spanSize(uid, v) > 0 {
				links = append(links, Link{From: uid, To: v})
			}
		}
	}
	return links
}

// Candidate is one potential transmitter toward a fixed receiver: a
// neighbor From whose transmissions can arrive, paired with the link's
// channel span resolved once at construction time. Engines iterate
// candidate lists in their reception hot loops instead of re-querying
// Neighbors/Reaches/Span (two binary searches plus a set allocation) per
// slot.
type Candidate struct {
	// From is the potential transmitter.
	From NodeID
	// Span is span(receiver, From): the channels on which From's
	// transmissions can be decoded by the receiver. Shared storage — do
	// not modify: InboundCandidates carves every span of a table out of one
	// word arena (channel.ArenaSet), and both directions of an edge share
	// one span.
	Span channel.Set
}

// InboundCandidates returns, for every receiver u, the neighbors v with
// Reaches(v, u) and a non-empty span, each with span(u,v) precomputed —
// the only nodes whose transmissions can ever be decoded at u. Lists are
// in ascending From order (the same order Neighbors reports), so a
// resolver walking a candidate list visits transmitters exactly as one
// walking Neighbors with per-slot Reaches/Span queries would. The table
// snapshots the network: calls to RestrictSpan, DropDirection or SetAvail
// after construction are not reflected.
//
// The build is O(E) with a constant number of allocations, which is what
// keeps it affordable at n≥100k. Rows are subslices of one flat candidate
// arena, and span(u,v) — symmetric by definition — is resolved once per
// undirected edge into one shared word arena and shared by both
// directions' entries. The adjacency walk needs no membership searches
// (the pairs come from the adjacency itself), and the dropped-direction
// and span-override maps are consulted only when they exist. The
// differential tests pin it to a row-at-a-time reference build.
func (nw *Network) InboundCandidates() [][]Candidate {
	n := len(nw.nodes)
	// Pass 1: in ascending (u, v>u) edge order, count the surviving entries
	// per receiver row and the span words the edges that keep an entry need.
	counts := make([]int32, n+1)
	words := 0
	for u := range nw.nodes {
		uid := NodeID(u)
		for _, v := range nw.adj[u] {
			if v <= uid || nw.spanSize(uid, v) == 0 {
				continue
			}
			in, out := nw.undropped(v, uid), nw.undropped(uid, v)
			if in {
				counts[u]++
			}
			if out {
				counts[v]++
			}
			if in || out {
				words += nw.spanWords(uid, v)
			}
		}
	}
	off := make([]int32, n+1)
	for u := 0; u < n; u++ {
		off[u+1] = off[u] + counts[u]
	}
	arena := make([]Candidate, off[n])
	spanArena := make([]uint64, words)
	// Pass 2: resolve each kept edge's span into the word arena, then
	// scatter both directions through per-row cursors. Row u receives each
	// transmitter v<u while the outer index is v (ascending v), then each
	// v>u while the outer index is u (ascending adjacency order), so rows
	// come out in ascending From order without a sort.
	cur := counts[:n]
	copy(cur, off[:n])
	words = 0
	for u := range nw.nodes {
		uid := NodeID(u)
		for _, v := range nw.adj[u] {
			if v <= uid || nw.spanSize(uid, v) == 0 {
				continue
			}
			in, out := nw.undropped(v, uid), nw.undropped(uid, v)
			if !in && !out {
				continue
			}
			w := nw.spanWords(uid, v)
			span := nw.nodes[u].Avail.IntersectInto(nw.nodes[v].Avail, channel.ArenaSet(spanArena[words:words+w:words+w]))
			words += w
			if nw.spanOverride != nil {
				if mask, ok := nw.spanOverride[canonicalEdge(uid, v)]; ok {
					span = span.IntersectInto(mask, span)
				}
			}
			if in {
				arena[cur[u]] = Candidate{From: v, Span: span}
				cur[u]++
			}
			if out {
				arena[cur[v]] = Candidate{From: uid, Span: span}
				cur[v]++
			}
		}
	}
	table := make([][]Candidate, n)
	for u := 0; u < n; u++ {
		table[u] = arena[off[u]:off[u+1]:off[u+1]]
	}
	return table
}

// spanWords returns the word length of A(u)∩A(v) as Intersect sizes it:
// the shorter operand's. An override only ever shortens it.
func (nw *Network) spanWords(u, v NodeID) int {
	return min(len(nw.nodes[u].Avail.Words()), len(nw.nodes[v].Avail.Words()))
}

// DegreeOn returns Δ(u,c): the number of neighbors whose transmissions can
// arrive at u on channel c, i.e. nodes v with Reaches(v,u) and c ∈
// span(u,v). This in-degree is the contention-relevant quantity: it counts
// the transmitters that can collide at u. It allocates nothing.
func (nw *Network) DegreeOn(u NodeID, c channel.ID) int {
	d := 0
	for _, v := range nw.adj[u] {
		if nw.undropped(v, u) && nw.edgeSpanContains(u, v, c) {
			d++
		}
	}
	return d
}

// Validate checks structural invariants: node IDs dense (guaranteed by
// construction), adjacency symmetric, every node has a non-empty available
// set, and every edge has a non-empty span. The last two conditions are what
// channel assigners must establish; Validate is how tests and tools audit
// them. A valid network is checked without allocating.
func (nw *Network) Validate() error {
	for u := range nw.nodes {
		for _, v := range nw.adj[u] {
			if !nw.AreNeighbors(v, NodeID(u)) {
				return fmt.Errorf("topology: asymmetric adjacency: %d->%d present, reverse missing", u, v)
			}
		}
		if nw.nodes[u].Avail.IsEmpty() {
			return fmt.Errorf("topology: node %d has empty available channel set", u)
		}
	}
	// Every directed link, in DirectedLinks order.
	for u := range nw.nodes {
		uid := NodeID(u)
		for _, v := range nw.adj[u] {
			if nw.undropped(uid, v) && nw.spanSize(uid, v) == 0 {
				return fmt.Errorf("topology: edge {%d,%d} has empty span", u, v)
			}
		}
	}
	return nil
}

// EdgeCount returns the number of undirected edges.
func (nw *Network) EdgeCount() int {
	total := 0
	for _, neighbors := range nw.adj {
		total += len(neighbors)
	}
	return total / 2
}
