package sim

import (
	"m2hew/internal/clock"
)

// This file implements the frame-geometry notions of the paper's Section IV
// (Definitions 1–4) as checkable predicates over clock timelines, plus the
// constructive procedure of Lemma 8. The lemma-audit experiment (E6) and the
// drift-sensitivity experiment (E9) evaluate these against simulated drifting
// clocks; the property tests assert them wholesale for δ ≤ 1/7.

// FramePair identifies a frame of a transmitter timeline and a frame of a
// receiver timeline.
type FramePair struct {
	// V is the frame index on the transmitter's timeline.
	V int
	// U is the frame index on the receiver's timeline.
	U int
}

// alignEps returns the containment tolerance for a timeline: boundaries that
// coincide up to accumulated floating-point error count as contained, which
// matches the paper's convention that a slot boundary lying exactly on a
// frame boundary is inside ("if b₁ lies on the boundary of two slots, we
// select the earlier one").
func alignEps(tl *clock.Timeline) float64 {
	return float64(1e-9 * tl.FrameLen())
}

// Aligned reports whether the frame pair ⟨fv of tlV, gu of tlU⟩ is aligned
// per Definition 1: at least one slot of fv lies completely within gu.
func Aligned(tlV *clock.Timeline, fv int, tlU *clock.Timeline, gu int) bool {
	gs, ge := tlU.FrameInterval(gu)
	eps := alignEps(tlU)
	for s := 0; s < tlV.SlotsPerFrame(); s++ {
		ss, se := tlV.FrameSlotInterval(fv, s)
		if ss >= gs-eps && se <= ge+eps {
			return true
		}
	}
	return false
}

// OverlappingFrames returns the frames of tlB that overlap (with positive
// duration) frame f of tlA — the overlap(f, b) of Definition 2. The result
// is an ascending range of frame indexes.
func OverlappingFrames(tlA *clock.Timeline, f int, tlB *clock.Timeline) []int {
	fs, fe := tlA.FrameInterval(f)
	// Overlaps shorter than eps are floating-point artifacts of shared
	// boundaries, not real overlaps.
	eps := alignEps(tlB)
	g := tlB.FirstFullFrameAfter(fs)
	// The frame before the first full frame after fs may still overlap.
	for g > 0 {
		_, pe := tlB.FrameInterval(g - 1)
		if pe > fs+eps {
			g--
		} else {
			break
		}
	}
	var out []int
	for {
		gs, ge := tlB.FrameInterval(g)
		if gs >= fe-eps {
			break
		}
		if ge > fs+eps {
			out = append(out, g)
		}
		g++
	}
	return out
}

// MaxOverlap returns the maximum, over the first frameCount frames f of tlA,
// of |overlap(f, tlB)| — the quantity Lemma 4 bounds by 3 when both drift
// processes respect δ ≤ 1/7 (the proof only needs δ ≤ 1/3).
func MaxOverlap(tlA *clock.Timeline, tlB *clock.Timeline, frameCount int) int {
	maxN := 0
	for f := 0; f < frameCount; f++ {
		if n := len(OverlappingFrames(tlA, f, tlB)); n > maxN {
			maxN = n
		}
	}
	return maxN
}

// FindAlignedPairAfter searches for an aligned pair among the first two full
// frames of tlV and tlU after real time T — exactly the candidate set of
// Lemma 7, which proves one of the four pairs must be aligned when δ ≤ 1/7.
// It returns the first aligned pair in (V, U)-lexicographic order.
func FindAlignedPairAfter(tlV, tlU *clock.Timeline, t float64) (FramePair, bool) {
	fv1 := tlV.FirstFullFrameAfter(t)
	gu1 := tlU.FirstFullFrameAfter(t)
	for _, fv := range []int{fv1, fv1 + 1} {
		for _, gu := range []int{gu1, gu1 + 1} {
			if Aligned(tlV, fv, tlU, gu) {
				return FramePair{V: fv, U: gu}, true
			}
		}
	}
	return FramePair{}, false
}

// AdmissibleSequence constructs a sequence of frame pairs that is admissible
// with respect to the link (v,u) in the sense of Definition 4, following the
// two-step construction in the proof of Lemma 8:
//
//  1. Build γ: starting from ts, repeatedly apply Lemma 7 to the earlier of
//     the end times of the previous pair's frames, collecting aligned pairs
//     that strictly advance on both timelines.
//  2. Build σ: keep every third pair of γ, which restores the
//     disjoint-overlap property (condition 4 of Definition 4).
//
// Construction stops when either timeline's next candidate frame index would
// reach frameBudget. The returned sequence satisfies all four admissibility
// conditions whenever both clocks respect δ ≤ 1/7; for larger drift the
// Lemma 7 step can fail, in which case construction stops early (the
// drift-sensitivity experiment measures exactly this).
func AdmissibleSequence(tlV, tlU *clock.Timeline, ts float64, frameBudget int) []FramePair {
	var gamma []FramePair
	t := ts
	for {
		pair, ok := FindAlignedPairAfter(tlV, tlU, t)
		if !ok {
			break
		}
		if pair.V+1 >= frameBudget || pair.U+1 >= frameBudget {
			break
		}
		gamma = append(gamma, pair)
		_, fvEnd := tlV.FrameInterval(pair.V)
		_, guEnd := tlU.FrameInterval(pair.U)
		if fvEnd < guEnd {
			t = fvEnd
		} else {
			t = guEnd
		}
	}
	// σ: every third pair starting with the first.
	var sigma []FramePair
	for i := 0; i < len(gamma); i += 3 {
		sigma = append(sigma, gamma[i])
	}
	return sigma
}

// CheckAdmissible verifies the four conditions of Definition 4 for a
// sequence of frame pairs over the given timelines. It returns the 1-based
// number of the first violated condition, or 0 if the sequence is
// admissible. (Condition 1 — frames belong to the right nodes — is
// structural here: pairs index into the two timelines by construction.)
func CheckAdmissible(tlV, tlU *clock.Timeline, seq []FramePair) int {
	for k := 0; k < len(seq); k++ {
		// Condition 3: every pair aligned.
		if !Aligned(tlV, seq[k].V, tlU, seq[k].U) {
			return 3
		}
		if k == 0 {
			continue
		}
		// Condition 2: strict precedence on both timelines.
		if seq[k-1].V >= seq[k].V || seq[k-1].U >= seq[k].U {
			return 2
		}
		// Condition 4: overlapAll of consecutive receiver frames disjoint.
		// overlapAll(g) is determined by the real-time extent of g across
		// every node; for the pairwise audit we check that no frame of
		// either timeline overlaps both receiver frames, which is the
		// binding case (a third node's frame overlapping both would need to
		// span the same gap and is checked by the engine-level experiment).
		if overlapAllIntersect(tlV, tlU, seq[k-1].U, seq[k].U) {
			return 4
		}
	}
	return 0
}

// overlapAllIntersect reports whether some frame of tlV or tlU overlaps both
// frame gPrev and frame gCur of tlU.
func overlapAllIntersect(tlV, tlU *clock.Timeline, gPrev, gCur int) bool {
	for _, tl := range []*clock.Timeline{tlV, tlU} {
		prev := OverlappingFrames(tlU, gPrev, tl)
		cur := OverlappingFrames(tlU, gCur, tl)
		seen := make(map[int]bool, len(prev))
		for _, f := range prev {
			seen[f] = true
		}
		for _, f := range cur {
			if seen[f] {
				return true
			}
		}
	}
	return false
}
