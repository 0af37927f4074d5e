package clock

import (
	"fmt"
	"math"
	"sort"
)

// Timeline converts the local frame/slot schedule of one node into real-time
// instants under a drift process.
//
// A node divides its local time into frames of local length L, each split
// into SlotsPerFrame equal local slots (the paper uses 3, Fig. 1). The drift
// rate is held constant within each local slot — the paper allows the rate
// to change arbitrarily over time subject to |rate| ≤ δ, and per-slot
// piecewise-constant rates realize every envelope the analysis permits: the
// real duration of a slot with rate d is (L/k)/(1+d), so frame lengths cover
// exactly the interval [L/(1+δ), L/(1−δ)] of the paper's Eq. (10).
type Timeline struct {
	start         float64 // real time at which local time 0 occurs
	frameLen      float64 // L: local frame length
	slotsPerFrame int
	localSlot     float64 // frameLen / slotsPerFrame, divided once
	drift         DriftProcess

	// bounds[i] is the real time of the start of local slot i; grown lazily.
	bounds []float64
}

// NewTimeline returns a Timeline for a node whose clock starts running at
// real time start (local time zero), with local frame length frameLen split
// into slotsPerFrame slots, under the given drift process.
func NewTimeline(start, frameLen float64, slotsPerFrame int, drift DriftProcess) (*Timeline, error) {
	if frameLen <= 0 {
		return nil, fmt.Errorf("clock: frame length %v must be positive", frameLen)
	}
	if slotsPerFrame <= 0 {
		return nil, fmt.Errorf("clock: %d slots per frame must be positive", slotsPerFrame)
	}
	if drift == nil {
		drift = Ideal
	}
	if err := validateBound(drift.Bound()); err != nil {
		return nil, err
	}
	return &Timeline{
		start:         start,
		frameLen:      frameLen,
		slotsPerFrame: slotsPerFrame,
		localSlot:     frameLen / float64(slotsPerFrame),
		drift:         drift,
		bounds:        []float64{start},
	}, nil
}

// Reset re-initializes the timeline in place with new parameters, keeping the
// boundary cache's backing array — NewTimeline without the per-trial
// allocations, for engine scratch that recycles timelines across trials. The
// same validation as NewTimeline applies.
func (t *Timeline) Reset(start, frameLen float64, slotsPerFrame int, drift DriftProcess) error {
	if frameLen <= 0 {
		return fmt.Errorf("clock: frame length %v must be positive", frameLen)
	}
	if slotsPerFrame <= 0 {
		return fmt.Errorf("clock: %d slots per frame must be positive", slotsPerFrame)
	}
	if drift == nil {
		drift = Ideal
	}
	if err := validateBound(drift.Bound()); err != nil {
		return err
	}
	t.start = start
	t.frameLen = frameLen
	t.slotsPerFrame = slotsPerFrame
	t.localSlot = frameLen / float64(slotsPerFrame)
	t.drift = drift
	if cap(t.bounds) == 0 {
		t.bounds = []float64{start}
	} else {
		t.bounds = t.bounds[:1]
		t.bounds[0] = start
	}
	return nil
}

// Reserve pre-sizes the boundary cache for at least slots slots, so
// subsequent lazy extension appends into existing capacity instead of growing
// the array by doubling. Values never change, only capacity. The
// asynchronous engine calls it with the frames it is about to resolve:
// each time a run that can stop early doubles its reservation, or once
// with the whole frame budget for a run that cannot.
func (t *Timeline) Reserve(slots int) {
	need := slots + 1 // bounds holds slot starts plus the final end boundary
	if cap(t.bounds) >= need {
		return
	}
	bounds := make([]float64, len(t.bounds), need)
	copy(bounds, t.bounds)
	t.bounds = bounds
}

// Start returns the real time at which the timeline begins.
func (t *Timeline) Start() float64 { return t.start }

// FrameLen returns the local frame length L.
func (t *Timeline) FrameLen() float64 { return t.frameLen }

// SlotsPerFrame returns the number of slots per frame.
func (t *Timeline) SlotsPerFrame() int { return t.slotsPerFrame }

// extendTo grows the cached boundaries so bounds[i] exists.
func (t *Timeline) extendTo(i int) {
	for len(t.bounds) <= i {
		k := len(t.bounds) - 1 // slot index whose real duration we add
		rate := t.drift.Rate(k)
		if rate <= -1 {
			// A clock running backwards or stopped violates the model; the
			// drift process constructor bounds prevent this, so reaching it
			// is a programming error.
			panic(fmt.Sprintf("clock: drift rate %v <= -1 at slot %d", rate, k))
		}
		realDur := t.localSlot / (1 + rate)
		t.bounds = append(t.bounds, t.bounds[k]+realDur)
	}
}

// SlotStart returns the real time at which local slot i begins (slot 0 is
// the first slot). A cached boundary is returned directly; only a slot past
// the cache walks the drift process.
func (t *Timeline) SlotStart(i int) float64 {
	if i >= 0 && i < len(t.bounds) {
		return t.bounds[i]
	}
	if i < 0 {
		panic(fmt.Sprintf("clock: SlotStart(%d): negative slot", i))
	}
	t.extendTo(i)
	return t.bounds[i]
}

// SlotInterval returns the real-time half-open interval [start, end) of
// local slot i.
func (t *Timeline) SlotInterval(i int) (start, end float64) {
	return t.SlotStart(i), t.SlotStart(i + 1)
}

// FrameInterval returns the real-time interval [start, end) of local frame f.
func (t *Timeline) FrameInterval(f int) (start, end float64) {
	if f < 0 {
		panic(fmt.Sprintf("clock: FrameInterval(%d): negative frame", f))
	}
	return t.SlotStart(f * t.slotsPerFrame), t.SlotStart((f + 1) * t.slotsPerFrame)
}

// FrameSlotInterval returns the real-time interval of slot s (0-based)
// within frame f.
func (t *Timeline) FrameSlotInterval(f, s int) (start, end float64) {
	if s < 0 || s >= t.slotsPerFrame {
		panic(fmt.Sprintf("clock: slot %d outside frame of %d slots", s, t.slotsPerFrame))
	}
	i := f*t.slotsPerFrame + s
	return t.SlotStart(i), t.SlotStart(i + 1)
}

// FullFramesBy returns the number of complete frames that have ended at or
// before real time rt. It returns 0 for times before the first frame ends.
func (t *Timeline) FullFramesBy(rt float64) int {
	if rt < t.start {
		return 0
	}
	// Ensure the cache extends past rt. Each frame takes at least
	// frameLen/(1+δ) real time, so the frame count is finite; grow
	// geometrically until the last cached boundary passes rt.
	for t.bounds[len(t.bounds)-1] <= rt {
		t.extendTo(len(t.bounds)*2 - 1)
	}
	// Find the largest slot boundary <= rt.
	idx := sort.SearchFloat64s(t.bounds, rt)
	if idx == len(t.bounds) || t.bounds[idx] > rt {
		idx--
	}
	return idx / t.slotsPerFrame
}

// FirstFullFrameAfter returns the index of the first frame whose start time
// is at or after real time rt — the "first full frame after T" of Lemma 7.
// Frames whose boundaries are already cached are binary-searched; only an
// answer past them extends the cache, frame by frame, so the answer and
// the cache length are those of a linear scan from frame 0.
func (t *Timeline) FirstFullFrameAfter(rt float64) int {
	if rt <= t.start {
		return 0
	}
	// Slot boundaries accumulate floating-point error; treat starts within a
	// relative epsilon of rt as "at or after" so exact-boundary queries are
	// stable.
	at := rt - float64(1e-9*math.Max(1, math.Abs(rt)))
	// Frames [0, cached) have both boundaries in the cache (a linear scan
	// reads each frame's end too). Frame starts never decrease, so the
	// answer is the first cached start at or after at, if there is one.
	k := t.slotsPerFrame
	cached := (len(t.bounds) - 1) / k
	if f := sort.Search(cached, func(f int) bool { return t.bounds[f*k] >= at }); f < cached {
		return f
	}
	for f := cached; ; f++ {
		if start, _ := t.FrameInterval(f); start >= at {
			return f
		}
	}
}

// LocalToReal converts a local-clock instant (seconds since the node's
// local zero) to real time, interpolating linearly within the slot the
// instant falls in (drift is constant per slot by construction). Negative
// local times are rejected with a panic — the model has no pre-start time.
func (t *Timeline) LocalToReal(local float64) float64 {
	if local < 0 {
		panic(fmt.Sprintf("clock: LocalToReal(%v): negative local time", local))
	}
	idx := int(local / t.localSlot)
	start := t.SlotStart(idx)
	end := t.SlotStart(idx + 1)
	frac := (local - float64(float64(idx)*t.localSlot)) / t.localSlot
	return start + float64(frac*(end-start))
}

// RealToLocal converts a real-time instant at or after the node's start to
// its local clock reading. It is the inverse of LocalToReal up to floating
// point.
func (t *Timeline) RealToLocal(rt float64) float64 {
	if rt < t.start {
		panic(fmt.Sprintf("clock: RealToLocal(%v): before node start %v", rt, t.start))
	}
	// Find the slot containing rt (grow the cache past rt first).
	for t.bounds[len(t.bounds)-1] <= rt {
		t.extendTo(len(t.bounds)*2 - 1)
	}
	idx := sort.SearchFloat64s(t.bounds, rt)
	if idx == len(t.bounds) || t.bounds[idx] > rt {
		idx--
	}
	start, end := t.bounds[idx], t.bounds[idx+1]
	frac := 0.0
	if end > start {
		frac = (rt - start) / (end - start)
	}
	return (float64(idx) + frac) * t.localSlot
}
