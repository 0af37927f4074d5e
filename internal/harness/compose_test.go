package harness

import (
	"sync"
	"testing"
	"time"

	"m2hew/internal/sim"
)

// recordingInstrument logs every seam call and hands out a distinctive
// observer so TrialDone routing can be checked.
type recordingInstrument struct {
	mu       sync.Mutex
	observer sim.Observer // returned by TrialObserver (may be nil)
	given    []sim.Observer
	done     []sim.Observer
	runs     []int
	batches  []int
	starts   []int
}

func (r *recordingInstrument) TrialObserver(nodes, channels int) sim.Observer {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.given = append(r.given, r.observer)
	return r.observer
}

func (r *recordingInstrument) TrialDone(obs sim.Observer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.done = append(r.done, obs)
}

func (r *recordingInstrument) ObserveRun(index int, queueDelay, wall time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.runs = append(r.runs, index)
}

func (r *recordingInstrument) ObserveBatch(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.batches = append(r.batches, n)
}

func (r *recordingInstrument) ObserveStart(index int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.starts = append(r.starts, index)
}

// maskObs is an observer with a declared subscription mask.
type maskObs struct{ mask sim.EventMask }

func (m *maskObs) OnEvent(sim.Event)        {}
func (m *maskObs) EventMask() sim.EventMask { return m.mask }

func TestInstrumentsNilHandling(t *testing.T) {
	if got := Instruments(); got != nil {
		t.Errorf("Instruments() = %v, want nil", got)
	}
	if got := Instruments(nil, nil); got != nil {
		t.Errorf("Instruments(nil, nil) = %v, want nil", got)
	}
	lone := &recordingInstrument{}
	if got := Instruments(nil, lone, nil); got != Instrument(lone) {
		t.Errorf("lone instrument not returned unchanged: %v", got)
	}
}

// TestInstrumentsComposesObserversAndRoutesTrialDone: the combined trial
// observer forwards to every member's observer, and TrialDone hands each
// member exactly the observer it built.
func TestInstrumentsComposesObserversAndRoutesTrialDone(t *testing.T) {
	a := &recordingInstrument{observer: &maskObs{mask: sim.AllEvents}}
	b := &recordingInstrument{observer: nil} // Progress-style: declines observers
	c := &recordingInstrument{observer: &maskObs{mask: 0}}
	ins := Instruments(a, b, c)

	obs := ins.TrialObserver(4, 2)
	if obs == nil {
		t.Fatal("combined observer is nil despite members with observers")
	}
	ins.TrialDone(obs)
	if len(a.done) != 1 || a.done[0] != a.observer {
		t.Errorf("a got back %v, want its own observer", a.done)
	}
	if len(b.done) != 1 || b.done[0] != nil {
		t.Errorf("b got back %v, want nil (it declined)", b.done)
	}
	if len(c.done) != 1 || c.done[0] != c.observer {
		t.Errorf("c got back %v, want its own observer", c.done)
	}
}

// TestInstrumentsAllDecline: when every member returns a nil observer the
// combination must too, preserving the engines' no-observer fast path —
// and TrialDone(nil) still fans out.
func TestInstrumentsAllDecline(t *testing.T) {
	a, b := &recordingInstrument{}, &recordingInstrument{}
	ins := Instruments(a, b)
	if obs := ins.TrialObserver(4, 2); obs != nil {
		t.Fatalf("combined observer = %v, want nil", obs)
	}
	ins.TrialDone(nil)
	if len(a.done) != 1 || len(b.done) != 1 {
		t.Errorf("TrialDone(nil) fan-out: a %d, b %d calls", len(a.done), len(b.done))
	}
}

// maskless is an observer without an EventMask declaration.
type maskless struct{}

func (maskless) OnEvent(sim.Event) {}

// TestInstrumentsPreservesEventMask: the composition's mask is the union of
// the members' declared masks — a mask-0 member costs nothing extra, and a
// member without a mask declaration widens to AllEvents.
func TestInstrumentsPreservesEventMask(t *testing.T) {
	mask := func(members ...sim.Observer) sim.EventMask {
		var ins []Instrument
		for _, m := range members {
			ins = append(ins, &recordingInstrument{observer: m})
		}
		obs := Instruments(ins...).TrialObserver(4, 2)
		if obs == nil {
			t.Fatal("nil combined observer")
		}
		em, ok := obs.(sim.EventMasker)
		if !ok {
			t.Fatalf("combined observer %T lost its EventMask method", obs)
		}
		return em.EventMask()
	}
	if got := mask(&maskObs{mask: 0}, &maskObs{mask: 0}); got != 0 {
		t.Errorf("union of zero masks = %v, want 0", got)
	}
	only := sim.MaskOf(sim.EventDeliver, sim.EventCollision)
	if got := mask(&maskObs{mask: only}, &maskObs{mask: 0}); got != only {
		t.Errorf("union = %v, want %v", got, only)
	}
	if got := mask(&maskObs{mask: only}, maskless{}); got != sim.AllEvents {
		t.Errorf("maskless member should widen union to AllEvents, got %v", got)
	}
}

// TestInstrumentsForwardsInternals: an internals report reaches every
// member sink through the composition.
func TestInstrumentsForwardsInternals(t *testing.T) {
	recA, recC := &sim.InternalsRecorder{}, &sim.InternalsRecorder{}
	ins := Instruments(
		&recordingInstrument{observer: recA},
		&recordingInstrument{observer: nil},
		&recordingInstrument{observer: recC},
	)
	obs := ins.TrialObserver(4, 2)
	sink, ok := obs.(sim.InternalsSink)
	if !ok {
		t.Fatalf("combined observer %T lost OnInternals", obs)
	}
	sink.OnInternals(sim.Internals{SlotsSimulated: 9, KernelSlots: 9})
	for i, rec := range []*sim.InternalsRecorder{recA, recC} {
		if rec.Reports != 1 || rec.Total.KernelSlots != 9 {
			t.Errorf("recorder %d: reports %d, kernel %d; want 1 report of 9", i, rec.Reports, rec.Total.KernelSlots)
		}
	}
}

// TestInstrumentsFansOutTimingHooks: ObserveBatch/Start/Run reach every
// member that implements them.
func TestInstrumentsFansOutTimingHooks(t *testing.T) {
	a, b := &recordingInstrument{}, &recordingInstrument{}
	ins := Instruments(a, b)
	mi, ok := ins.(multiInstrument)
	if !ok {
		t.Fatalf("Instruments(a, b) = %T", ins)
	}
	mi.ObserveBatch(5)
	mi.ObserveStart(2)
	mi.ObserveRun(2, time.Millisecond, time.Second)
	for i, r := range []*recordingInstrument{a, b} {
		if len(r.batches) != 1 || r.batches[0] != 5 || len(r.starts) != 1 || len(r.runs) != 1 {
			t.Errorf("member %d missed hooks: batches %v starts %v runs %v", i, r.batches, r.starts, r.runs)
		}
	}
}

func TestProgressCountsAndPhases(t *testing.T) {
	p := NewProgress()
	p.SetPhase("alpha")
	p.ObserveBatch(3)
	s := p.Snapshot()
	if s.Queued != 3 || s.Running != 0 || s.Done != 0 {
		t.Fatalf("after batch: %+v", s)
	}
	p.ObserveStart(0)
	s = p.Snapshot()
	if s.Queued != 2 || s.Running != 1 {
		t.Fatalf("after start: %+v", s)
	}
	p.ObserveRun(0, 2*time.Second, 4*time.Second)
	p.SetPhase("beta")
	p.ObserveStart(1)
	p.ObserveRun(1, time.Second, 3*time.Second)
	s = p.Snapshot()
	if s.Queued != 1 || s.Running != 0 || s.Done != 2 || s.Phase != "beta" {
		t.Fatalf("final totals: %+v", s)
	}
	if len(s.Phases) != 2 {
		t.Fatalf("phases = %+v, want alpha then beta", s.Phases)
	}
	if a := s.Phases[0]; a.Phase != "alpha" || a.Done != 1 || a.QueueSeconds != 2 || a.WallSeconds != 4 {
		t.Errorf("alpha = %+v", a)
	}
	if b := s.Phases[1]; b.Phase != "beta" || b.Done != 1 || b.QueueSeconds != 1 || b.WallSeconds != 3 {
		t.Errorf("beta = %+v", b)
	}
}

// TestProgressNeverTouchesEngines: the whole point of Progress is that it
// cannot perturb results — it must not request an engine observer.
func TestProgressNeverTouchesEngines(t *testing.T) {
	p := NewProgress()
	if obs := p.TrialObserver(100, 10); obs != nil {
		t.Fatalf("Progress.TrialObserver = %v, want nil", obs)
	}
	p.TrialDone(nil) // must be a no-op, not a panic
}

func TestProgressSubscribe(t *testing.T) {
	p := NewProgress()
	ch, cancel := p.Subscribe(2)
	p.ObserveBatch(1)
	p.ObserveStart(7)
	p.ObserveRun(7, 0, time.Second)
	rec := <-ch
	if rec.Index != 7 || rec.Done != 1 || rec.Seq != 1 || rec.WallSeconds != 1 {
		t.Errorf("record = %+v", rec)
	}
	// Cancel closes the channel and is idempotent; later completions are
	// not delivered.
	cancel()
	cancel()
	if _, ok := <-ch; ok {
		t.Error("channel not closed by cancel")
	}
	p.ObserveRun(8, 0, 0)
	if p.Seq() != 2 {
		t.Errorf("seq = %d, want 2", p.Seq())
	}
}

// TestProgressSlowSubscriberDropsRecords: a full buffer drops records
// instead of blocking the worker path.
func TestProgressSlowSubscriberDropsRecords(t *testing.T) {
	p := NewProgress()
	ch, cancel := p.Subscribe(1)
	defer cancel()
	for i := 0; i < 5; i++ {
		p.ObserveRun(i, 0, 0) // nobody reading: only the first fits
	}
	rec := <-ch
	if rec.Index != 0 {
		t.Errorf("first record index = %d, want 0", rec.Index)
	}
	select {
	case extra, ok := <-ch:
		if ok {
			t.Errorf("unexpected buffered record: %+v", extra)
		}
	default: // drained: the other four were dropped
	}
	if p.Snapshot().Done != 5 {
		t.Errorf("done = %d, want 5 (drops lose records, not counts)", p.Snapshot().Done)
	}
}

// TestProgressRidesTheHarness drives a real Run through SetInstrument and
// checks the pipeline totals reconcile.
func TestProgressRidesTheHarness(t *testing.T) {
	p := NewProgress()
	p.SetPhase("work")
	SetInstrument(p)
	defer SetInstrument(nil)
	const n = 12
	if err := Run(n, func(i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	s := p.Snapshot()
	if s.Queued != 0 || s.Running != 0 || s.Done != n {
		t.Errorf("totals after run: %+v, want 0/0/%d", s, n)
	}
	if len(s.Phases) != 1 || s.Phases[0].Done != n {
		t.Errorf("phases = %+v", s.Phases)
	}
	if p.Seq() != n {
		t.Errorf("seq = %d, want %d", p.Seq(), n)
	}
}
