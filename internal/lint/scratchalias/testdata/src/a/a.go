// Package a exercises the scratchalias analyzer: adopt-without-release,
// use-after-handoff, scratch slice aliasing, and the sanctioned shapes.
package a

// pool mimics clock.DriftProcess's rate-buf pooling surface.
type pool struct{ buf []float64 }

func (p *pool) AdoptRateBuf(buf []float64) { p.buf = buf }
func (p *pool) ReleaseRateBuf() []float64  { b := p.buf; p.buf = nil; return b }

// runScratch mimics sim's trial-scoped scratch.
type runScratch struct {
	rateBufs [][]float64
	actions  []int
}

func (sc *runScratch) actionBuf(n int) []int { return sc.actions[:0] }

// event mimics the engines' observability payload.
type event struct{ actions []int }

type result struct{ actions []int }

func emit(e event) {}

// adoptNoRelease lends a buffer and never takes it back.
func adoptNoRelease(p *pool, buf []float64) {
	p.AdoptRateBuf(buf) // want "AdoptRateBuf without a matching ReleaseRateBuf in adoptNoRelease"
}

// adoptDocumented carries the owner directive: release happens at run end.
//
//nd:scratch-owner reclaimAll takes the buffers back when the run ends
func adoptDocumented(p *pool, buf []float64) {
	p.AdoptRateBuf(buf)
}

// adoptPaired releases in the same function.
func adoptPaired(p *pool, buf []float64) []float64 {
	p.AdoptRateBuf(buf)
	return p.ReleaseRateBuf()
}

// reclaimAll is the sanctioned reclamation shape: release, pool, stop.
func reclaimAll(sc *runScratch, ps []*pool) {
	for _, p := range ps {
		buf := p.ReleaseRateBuf()
		if buf != nil {
			sc.rateBufs = append(sc.rateBufs, buf)
		}
	}
}

// useAfterHandoff reads a released buffer after pooling it.
func useAfterHandoff(sc *runScratch, p *pool) float64 {
	buf := p.ReleaseRateBuf()
	sc.rateBufs = append(sc.rateBufs, buf)
	return buf[0] // want "use of buf after the released buffer was handed back to a pool"
}

// readoptThenUse hands the buffer to a new borrower and keeps reading it.
func readoptThenUse(p, q *pool) float64 {
	buf := p.ReleaseRateBuf()
	q.AdoptRateBuf(buf)
	return buf[0] // want "use of buf after the released buffer was handed back to a pool"
}

// aliasField stores a scratch-owned slice into a struct field.
func aliasField(sc *runScratch, r *result, n int) {
	acts := sc.actionBuf(n)
	r.actions = acts // want "scratch-owned slice acts stored into a struct field"
}

// aliasLiteral builds an escaping struct around a scratch-owned slice.
func aliasLiteral(sc *runScratch, n int) *result {
	acts := sc.actionBuf(n)
	out := &result{actions: acts} // want "scratch-owned slice acts aliased into a composite literal"
	return out
}

// aliasSuppressed documents a deliberate ownership transfer.
func aliasSuppressed(sc *runScratch, n int) *result {
	acts := sc.actionBuf(n)
	//ndlint:ignore scratchalias caller recycles via RecycleActions, ownership transfers
	return &result{actions: acts}
}

// tiledRun mimics the tiled resolver's run-scoped state: per-tile halo
// windows borrowed from the trial scratch for the duration of one run.
type tiledRun struct{ halo []int }

// haloBuf hands out the scratch's halo word window, like actionBuf.
func (sc *runScratch) haloBuf(n int) []int { return sc.actions[:0] }

// tileAliasLiteral wires a scratch-owned halo window into a run object
// that outlives the call — undocumented, so flagged.
func tileAliasLiteral(sc *runScratch, n int) *tiledRun {
	halo := sc.haloBuf(n)
	return &tiledRun{halo: halo} // want "scratch-owned slice halo aliased into a composite literal"
}

// tileAliasSuppressed is the sanctioned tiled-run shape: the run object
// dies with the run, before the scratch is recycled, and the directive
// records that.
func tileAliasSuppressed(sc *runScratch, n int) *tiledRun {
	halo := sc.haloBuf(n)
	//ndlint:ignore scratchalias run-scoped borrow; the run ends before the scratch is recycled
	return &tiledRun{halo: halo}
}

// tileAliasField stores the borrowed halo window into a longer-lived
// struct field after the fact; same leak, different syntax.
func tileAliasField(sc *runScratch, tr *tiledRun, n int) {
	halo := sc.haloBuf(n)
	tr.halo = halo // want "scratch-owned slice halo stored into a struct field"
}

// inlineEmit passes the literal straight to a callee: borrow, not escape.
func inlineEmit(sc *runScratch, n int) {
	acts := sc.actionBuf(n)
	for i := 0; i < n; i++ {
		acts = append(acts, i)
		emit(event{actions: acts})
	}
}

// targetIndex mimics metrics.TargetIndex: a coverage target in CSR form,
// built once per network and shared read-only by every run's coverage.
type targetIndex struct {
	off []int64
	to  []int
}

// coverage mimics metrics.Coverage: a shared target plus per-run state.
type coverage struct {
	index *targetIndex
	off   []int64
	at    []float64
}

// indexScratch mimics sim.SyncScratch's network-keyed target cache.
type indexScratch struct {
	key    int
	index  *targetIndex
	offBuf []int64
}

// targetOffsets rebuilds the row offsets into a recycled buffer whenever
// the network changes: a coverage from an earlier network that kept the
// slice would silently describe the new one.
func (sc *indexScratch) targetOffsets(key, rows int) []int64 {
	if sc.key != key {
		sc.key = key
		sc.offBuf = sc.offBuf[:0]
		for r := 0; r <= rows; r++ {
			sc.offBuf = append(sc.offBuf, int64(r))
		}
	}
	return sc.offBuf
}

// targetIndexFor allocates a fresh immutable index per network and shares
// it by pointer; an old index is dropped, never rewritten.
func (sc *indexScratch) targetIndexFor(key, rows int) *targetIndex {
	if sc.key != key || sc.index == nil {
		sc.key = key
		sc.index = &targetIndex{off: make([]int64, rows+1)}
	}
	return sc.index
}

// coverageOnRecycledOffsets builds a returned coverage around the
// recycled offset buffer: the next network switch rewrites it in place.
func coverageOnRecycledOffsets(sc *indexScratch, key, rows int) *coverage {
	off := sc.targetOffsets(key, rows)
	return &coverage{off: off, at: make([]float64, rows)} // want "scratch-owned slice off aliased into a composite literal"
}

// coverageOnSharedIndex is the sanctioned shape: the coverage holds the
// per-network index by pointer and owns only its per-run times.
func coverageOnSharedIndex(sc *indexScratch, key, rows int) *coverage {
	idx := sc.targetIndexFor(key, rows)
	return &coverage{index: idx, at: make([]float64, rows)}
}
