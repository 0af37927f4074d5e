package experiment

import (
	"fmt"

	"m2hew/internal/clock"
	"m2hew/internal/harness"
	"m2hew/internal/rng"
	"m2hew/internal/sim"
)

// E6 audits the frame-geometry lemmas that carry Algorithm 4's analysis:
//
//   - Lemma 4: a frame of one node overlaps at most 3 frames of another.
//   - Lemma 7: after any instant T ≥ T_s, some pair among the first two full
//     frames of a transmitter and a receiver is aligned.
//   - Lemma 8: an execution with M full frames of both nodes contains an
//     admissible sequence of at least M/6 frame pairs.
//
// For each drift process at δ = 1/7 (the paper's Assumption 1 boundary), the
// audit generates pairs of drifting timelines with random offsets and checks
// all three lemmas exhaustively over a long window. Expected values: max
// overlap ≤ 3, alignment success rate = 1, admissible yield ratio ≥ 1, zero
// admissibility violations.
func E6(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	framesPerPair := 400
	pairs := opts.Trials
	if opts.Quick {
		framesPerPair = 150
	}
	type config struct {
		label string
		mk    func(invert bool, r *rng.Source) (clock.DriftProcess, error)
	}
	delta := clock.MaxAsyncDrift
	configs := []config{
		{"ideal", func(bool, *rng.Source) (clock.DriftProcess, error) { return clock.Ideal, nil }},
		{"const ±δ", func(invert bool, _ *rng.Source) (clock.DriftProcess, error) {
			if invert {
				return clock.Constant(-delta), nil
			}
			return clock.Constant(delta), nil
		}},
		{"walk δ", func(_ bool, r *rng.Source) (clock.DriftProcess, error) {
			return clock.NewRandomWalk(delta, 0.04, r)
		}},
		{"sine δ", func(invert bool, _ *rng.Source) (clock.DriftProcess, error) {
			phase := 0.0
			if invert {
				phase = 3.14159
			}
			return clock.NewSinusoidal(delta, 29, phase)
		}},
		{"alt δ", func(invert bool, _ *rng.Source) (clock.DriftProcess, error) {
			return clock.NewAlternating(delta, 4, invert)
		}},
	}
	table := &Table{
		ID:    "E6",
		Title: "Lemmas 4, 7, 8: frame overlap, alignment, admissible-sequence yield at δ=1/7",
		Note: fmt.Sprintf("%d timeline pairs × %d frames per drift process; overlap must be ≤3, align rate 1, yield ≥ 1/6",
			pairs, framesPerPair),
		Columns: []string{"max overlap", "align rate", "yield ratio", "violations"},
	}
	// One prepared timeline pair: all randomness (offset, drift processes,
	// Lemma 7 probe instants) is drawn during the sequential setup phase,
	// in the same stream order as a sequential audit, so the parallel audit
	// below is byte-identical to one.
	type pairJob struct {
		a, b   *clock.Timeline
		offset float64
		probes []float64
	}
	type pairAudit struct {
		maxOverlap int
		alignOK    int
		yield      float64
		violation  bool
	}
	const probesPerPair = 50
	root := rng.New(opts.Seed)
	for _, cf := range configs {
		audits, err := harness.Trials(pairs,
			func(int) (pairJob, error) {
				offset := float64(root.Float64() * 4 * e4FrameLen)
				driftA, err := cf.mk(false, root.Split())
				if err != nil {
					return pairJob{}, err
				}
				driftB, err := cf.mk(true, root.Split())
				if err != nil {
					return pairJob{}, err
				}
				a, err := clock.NewTimeline(0, e4FrameLen, 3, driftA)
				if err != nil {
					return pairJob{}, err
				}
				b, err := clock.NewTimeline(offset, e4FrameLen, 3, driftB)
				if err != nil {
					return pairJob{}, err
				}
				probes := make([]float64, probesPerPair)
				for i := range probes {
					probes[i] = offset + root.Float64()*float64(framesPerPair-10)*e4FrameLen/(1+delta)
				}
				return pairJob{a: a, b: b, offset: offset, probes: probes}, nil
			},
			func(_ int, job pairJob) (pairAudit, error) {
				var audit pairAudit
				// Lemma 4 audit, both directions.
				audit.maxOverlap = sim.MaxOverlap(job.a, job.b, framesPerPair)
				if o := sim.MaxOverlap(job.b, job.a, framesPerPair); o > audit.maxOverlap {
					audit.maxOverlap = o
				}
				// Lemma 7 audit at random instants after both clocks started.
				for _, t := range job.probes {
					if _, ok := sim.FindAlignedPairAfter(job.a, job.b, t); ok {
						audit.alignOK++
					}
				}
				// Lemma 8 audit: construct σ and verify admissibility + yield.
				seq := sim.AdmissibleSequence(job.a, job.b, job.offset, framesPerPair)
				audit.violation = sim.CheckAdmissible(job.a, job.b, seq) != 0
				// Lemma 8's M counts full frames after T_s; the start offset
				// consumes up to ~5 of timeline a's budget, so measure yield
				// against the frames both nodes certainly completed.
				audit.yield = float64(len(seq)) / (float64(framesPerPair-10) / 6)
				return audit, nil
			})
		if err != nil {
			return nil, fmt.Errorf("E6 %s: %w", cf.label, err)
		}
		maxOverlap := 0
		alignChecks, alignOK := 0, 0
		minYield := 1.0
		violations := 0
		for _, audit := range audits {
			if audit.maxOverlap > maxOverlap {
				maxOverlap = audit.maxOverlap
			}
			alignChecks += probesPerPair
			alignOK += audit.alignOK
			if audit.yield < minYield {
				minYield = audit.yield
			}
			if audit.violation {
				violations++
			}
		}
		table.Rows = append(table.Rows, Row{
			Label: cf.label,
			Values: []float64{
				float64(maxOverlap),
				float64(alignOK) / float64(alignChecks),
				minYield,
				float64(violations),
			},
		})
	}
	return table, nil
}
