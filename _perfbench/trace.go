package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"m2hew/internal/sim"
)

// rootLayer is the span that brackets each measured window of a traced
// pass; its self time is the part of the traced wall no layer span covers.
const rootLayer = "bench.pass"

// layerSumTolerance bounds the unattributed share of the traced wall, and
// how far below zero any layer's self time may fall (a negative self time
// means child spans were counted twice).
const layerSumTolerance = 0.05

// span is one call into a layer, recorded by the benchmark around its own
// calls into the repository's modules. parent names the layer of the span
// that caused it. Spans on harness pool workers run in parallel with their
// siblings, so they carry weight 1/workers when self times are summed
// against the wall clock.
type span struct {
	layer, parent string
	start, end    time.Time
	weight        float64
}

// tracer keeps a traced pass's spans in memory. A nil *tracer records
// nothing, which is how untraced passes run the same code.
type tracer struct {
	workers int
	mu      sync.Mutex
	spans   []span
}

func newTracer() *tracer { return &tracer{workers: runtime.GOMAXPROCS(0)} }

// record adds a span; onWorker marks spans that ran on a pool worker.
func (t *tracer) record(layer, parent string, start, end time.Time, onWorker bool) {
	if t == nil {
		return
	}
	w := 1.0
	if onWorker {
		w = 1 / float64(t.workers)
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{layer, parent, start, end, w})
	t.mu.Unlock()
}

// call runs f on the caller's goroutine inside a span.
func (t *tracer) call(layer, parent string, f func() error) error {
	start := time.Now()
	err := f()
	t.record(layer, parent, start, time.Now(), false)
	return err
}

// busy returns the summed duration of layer's spans: worker time added
// up, not weighted.
func (t *tracer) busy(layer string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.layer == layer {
			d += s.end.Sub(s.start)
		}
	}
	return d
}

// selfTimes returns each layer's self time in seconds: its weighted span
// time minus the weighted time of the spans it caused. Because every span
// is subtracted from its parent, the self times sum to the root's wall.
func (t *tracer) selfTimes() map[string]float64 {
	self := map[string]float64{}
	for _, s := range t.spans {
		d := s.weight * s.end.Sub(s.start).Seconds()
		self[s.layer] += d
		if s.parent != "" {
			self[s.parent] -= d
		}
	}
	return self
}

// layerSum checks that the layers' self times account for the traced wall:
// the root's own self time (wall covered by no layer span) stays within
// layerSumTolerance of the wall and no layer's self time is negative beyond
// it. It returns the unattributed share and a description of any failure.
func layerSum(self map[string]float64, wall float64) (unattributed float64, problem string) {
	unattributed = self[rootLayer] / wall
	var bad []string
	if unattributed > layerSumTolerance || unattributed < -layerSumTolerance {
		bad = append(bad, fmt.Sprintf("unattributed %.4f of wall", unattributed))
	}
	for layer, s := range self {
		if s < -layerSumTolerance*wall {
			bad = append(bad, fmt.Sprintf("%s self %.4fs < 0", layer, s))
		}
	}
	sort.Strings(bad)
	return unattributed, strings.Join(bad, "; ")
}

// items is the harness instrument the benchmark installs for every pass.
// Untraced, it only records each pool work item's wall time (a "run" of
// the harness workloads) and hands the engines no observer. Traced, it
// also records item spans and, for trials that go through the harness's
// engine seam, an engine span with a mask-0 internals recorder.
type items struct {
	tr *tracer

	mu     sync.Mutex
	parent string // layer of the span that submitted the current batch
	walls  []float64
	busy   time.Duration
	tally  simTally
}

func (r *items) setParent(layer string) {
	r.mu.Lock()
	r.parent = layer
	r.mu.Unlock()
}

// take returns the recorded item walls (ms) and summed busy time, and
// empties both.
func (r *items) take() ([]float64, time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, b := r.walls, r.busy
	r.walls, r.busy = nil, 0
	return w, b
}

// TrialObserver implements harness.Instrument.
func (r *items) TrialObserver(nodes, channels int) sim.Observer {
	if r.tr == nil {
		return nil
	}
	return &trialObs{nodes: nodes, start: time.Now()}
}

// TrialDone implements harness.Instrument.
func (r *items) TrialDone(obs sim.Observer) {
	o, ok := obs.(*trialObs)
	if !ok {
		return
	}
	end := time.Now()
	r.tr.record("sim.run", "harness.item", o.start, end, true)
	r.mu.Lock()
	r.tally.add(o.nodes, o.Reports > 0, o.Last, end.Sub(o.start))
	r.mu.Unlock()
}

// ObserveRun implements harness.Instrument.
func (r *items) ObserveRun(_ int, _, wall time.Duration) {
	end := time.Now()
	r.mu.Lock()
	r.walls = append(r.walls, float64(wall)/1e6)
	r.busy += wall
	parent := r.parent
	r.mu.Unlock()
	r.tr.record("harness.item", parent, end.Add(-wall), end, true)
}

// trialObs is the per-trial observer of a traced harness trial: it
// subscribes to no event, so the engine keeps its fast paths, and receives
// the engine-internals report.
type trialObs struct {
	sim.InternalsRecorder
	nodes int
	start time.Time
}

// simTally sums engine-internals reports and the engine time of the runs
// that reported them.
type simTally struct {
	in        sim.Internals
	runTime   time.Duration // engine time of runs with an internals report
	nodeSlots float64       // Σ nodes × slots over the same runs
}

func (s *simTally) add(nodes int, reported bool, in sim.Internals, d time.Duration) {
	if !reported {
		return
	}
	s.in.Merge(in)
	s.runTime += d
	s.nodeSlots += float64(nodes) * float64(in.SlotsSimulated)
}

// runObs splits one m2hew.Run call into its layers: from Run's entry to
// the first slot event is m2hew's preparation (protocols, loss model,
// dynamic world, engine tables), from there to the internals report is the
// engine's slot loop, and from the report to Run's return is m2hew building
// the Report. It subscribes to slot events only, never to a per-listener
// event, so the engine's resolver path is the one an unobserved run takes.
type runObs struct {
	firstSlot, internalsAt time.Time
	in                     sim.Internals
	reported               bool
}

func (o *runObs) OnEvent(e sim.Event) {
	if e.Kind == sim.EventSlot && o.firstSlot.IsZero() {
		o.firstSlot = time.Now()
	}
}

func (o *runObs) EventMask() sim.EventMask { return sim.MaskOf(sim.EventSlot) }

func (o *runObs) OnInternals(in sim.Internals) {
	o.in = in
	o.reported = true
	o.internalsAt = time.Now()
}
