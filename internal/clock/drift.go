// Package clock models the local clocks of asynchronous nodes.
//
// The paper's asynchronous system model (Section II) assumes every node has
// a clock whose drift rate may change over time in magnitude and sign but is
// always bounded by δ: for all t and Δt ≥ 0,
//
//	(1−δ)·Δt ≤ C(t+Δt) − C(t) ≤ (1+δ)·Δt.
//
// Algorithm 4 additionally assumes δ ≤ 1/7 (Assumption 1). Clocks of
// different nodes may have arbitrary offsets.
//
// This package provides drift-rate processes (constant, random walk,
// sinusoidal, adversarial alternation) and a Timeline that converts a node's
// local frame/slot schedule into real-time intervals under a drift process.
// The Timeline is the only bridge between the "local clock" world a protocol
// lives in and the "real time" world the asynchronous engine simulates; the
// protocol itself never sees real time.
package clock

import (
	"errors"
	"fmt"
	"math"

	"m2hew/internal/rng"
)

// MaxAsyncDrift is the drift-rate bound of the paper's Assumption 1, the
// largest δ for which Algorithm 4's guarantees hold.
const MaxAsyncDrift = 1.0 / 7

// DriftProcess yields the drift rate of a clock during successive local
// slots. Rates are interpreted as seconds of local-clock progress gained per
// real second: a clock with rate d advances by (1+d)·Δt local seconds over
// Δt real seconds. Implementations must keep |Rate(k)| strictly below 1 and
// should keep it within the δ they were constructed with.
type DriftProcess interface {
	// Rate returns the drift rate in effect during local slot k (k >= 0).
	// Successive calls with the same k must return the same value.
	Rate(k int) float64
	// Bound returns the δ the process promises never to exceed.
	Bound() float64
}

// Constant is a drift process with a fixed rate.
type Constant float64

// Rate implements DriftProcess.
func (c Constant) Rate(int) float64 { return float64(c) }

// Bound implements DriftProcess.
func (c Constant) Bound() float64 { return math.Abs(float64(c)) }

// Ideal is the zero-drift process of a perfect clock.
var Ideal DriftProcess = Constant(0)

// RandomWalk is a drift process whose rate performs a bounded random walk:
// each slot the rate moves by a uniform step in [-Step, Step] and is
// reflected into [-Delta, Delta]. The walk is materialized lazily and
// memoized so Rate is deterministic per instance.
type RandomWalk struct {
	Delta float64 // drift bound δ
	Step  float64 // maximum per-slot rate change

	rng   *rng.Source // nil once ReleaseRateBuf consumed the walk
	rates []float64
}

// NewRandomWalk returns a random-walk drift process bounded by delta, with
// per-slot steps up to step, driven by r. It returns an error if the bound
// or step is invalid.
func NewRandomWalk(delta, step float64, r *rng.Source) (*RandomWalk, error) {
	if err := validateBound(delta); err != nil {
		return nil, err
	}
	if step < 0 {
		return nil, fmt.Errorf("clock: random walk step %v is negative", step)
	}
	return &RandomWalk{Delta: delta, Step: step, rng: r}, nil
}

// Rate implements DriftProcess.
func (w *RandomWalk) Rate(k int) float64 {
	for len(w.rates) <= k {
		prev := 0.0
		if len(w.rates) > 0 {
			prev = w.rates[len(w.rates)-1]
		}
		next := prev + w.rng.UniformFloat64(-w.Step, w.Step)
		// Reflect into [-Delta, Delta].
		if next > w.Delta {
			next = 2*w.Delta - next
		}
		if next < -w.Delta {
			next = float64(-2*w.Delta) - next
		}
		// A pathological step larger than 4·Delta could still escape after
		// one reflection; clamp as a backstop.
		next = math.Max(-w.Delta, math.Min(w.Delta, next))
		w.rates = append(w.rates, next)
	}
	return w.rates[k]
}

// Bound implements DriftProcess.
func (w *RandomWalk) Bound() float64 { return w.Delta }

// ReserveSlots pre-sizes the rate memo for at least n slots so the lazy walk
// in Rate appends into existing capacity instead of growing by doubling.
// Already-materialized rates are preserved, so the process still returns the
// same value for every previously-queried slot. Engines that know their frame
// budget discover this method via a type assertion.
func (w *RandomWalk) ReserveSlots(n int) {
	if cap(w.rates) >= n {
		return
	}
	rates := make([]float64, len(w.rates), n)
	copy(rates, w.rates)
	w.rates = rates
}

// ErrDriftConsumed is returned by AdoptRateBuf on a walk whose rate memo
// was released: its rng stream has advanced past the released rates, so it
// can no longer reproduce them.
var ErrDriftConsumed = errors.New("drift consumed by an earlier run")

// AdoptRateBuf hands the walk a recycled backing array for its rate memo.
// Materialized rates (if any) are copied over, so the process keeps
// returning the same value for every previously-queried slot; a buffer no
// larger than the current capacity is ignored. It fails with
// ErrDriftConsumed once the walk's memo has been released. Engine scratch
// that pools rate buffers across runs discovers this method via a type
// assertion.
func (w *RandomWalk) AdoptRateBuf(buf []float64) error {
	if w.rng == nil {
		return ErrDriftConsumed
	}
	if cap(buf) > cap(w.rates) {
		w.rates = append(buf[:0], w.rates...)
	}
	return nil
}

// ReleaseRateBuf detaches and returns the rate memo's backing array so a
// pool can hand it to the next run's walk, and consumes the walk: it drops
// the rng too, whose stream has advanced past the released rates, so no
// later query can materialize a different walk. The asynchronous engines
// call this at the end of every run, so a run consumes its random-walk
// drifts.
func (w *RandomWalk) ReleaseRateBuf() []float64 {
	buf := w.rates
	w.rates, w.rng = nil, nil
	return buf
}

// Sinusoidal is a drift process oscillating as δ·sin(2πk/Period + Phase),
// modeling slow periodic drift such as thermal cycling.
type Sinusoidal struct {
	Delta  float64 // amplitude (= drift bound)
	Period float64 // period in slots
	Phase  float64 // phase offset in radians
}

// NewSinusoidal returns a sinusoidal drift process. It returns an error if
// the amplitude is out of range or the period is not positive.
func NewSinusoidal(delta, period, phase float64) (*Sinusoidal, error) {
	if err := validateBound(delta); err != nil {
		return nil, err
	}
	if period <= 0 {
		return nil, fmt.Errorf("clock: sinusoidal period %v must be positive", period)
	}
	return &Sinusoidal{Delta: delta, Period: period, Phase: phase}, nil
}

// Rate implements DriftProcess.
func (s *Sinusoidal) Rate(k int) float64 {
	return s.Delta * math.Sin(2*math.Pi*float64(k)/s.Period+s.Phase)
}

// Bound implements DriftProcess.
func (s *Sinusoidal) Bound() float64 { return s.Delta }

// Alternating is an adversarial drift process that holds +δ for Hold slots,
// then -δ for Hold slots, and so on. It maximizes relative slippage between
// two clocks given opposite phases and is the stress case for the frame
// alignment lemmas.
type Alternating struct {
	Delta  float64 // drift bound δ
	Hold   int     // slots per half-cycle
	Invert bool    // start with -δ instead of +δ
}

// NewAlternating returns an alternating drift process. It returns an error
// if the bound is invalid or hold is not positive.
func NewAlternating(delta float64, hold int, invert bool) (*Alternating, error) {
	if err := validateBound(delta); err != nil {
		return nil, err
	}
	if hold <= 0 {
		return nil, fmt.Errorf("clock: alternating hold %d must be positive", hold)
	}
	return &Alternating{Delta: delta, Hold: hold, Invert: invert}, nil
}

// Rate implements DriftProcess.
func (a *Alternating) Rate(k int) float64 {
	phase := (k / a.Hold) % 2
	positive := phase == 0
	if a.Invert {
		positive = !positive
	}
	if positive {
		return a.Delta
	}
	return -a.Delta
}

// Bound implements DriftProcess.
func (a *Alternating) Bound() float64 { return a.Delta }

func validateBound(delta float64) error {
	if math.IsNaN(delta) || delta < 0 || delta >= 1 {
		return fmt.Errorf("clock: drift bound %v outside [0, 1)", delta)
	}
	return nil
}
