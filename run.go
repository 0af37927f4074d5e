package m2hew

import (
	"fmt"
	"io"
	"math"

	"m2hew/internal/analytic"
	"m2hew/internal/baseline"
	"m2hew/internal/clock"
	"m2hew/internal/core"
	"m2hew/internal/dynamics"
	"m2hew/internal/harness"
	"m2hew/internal/metrics"
	"m2hew/internal/rng"
	"m2hew/internal/sim"
	"m2hew/internal/topology"
	"m2hew/internal/trace"
)

// Algorithm selects one of the paper's discovery algorithms.
type Algorithm string

// The paper's four algorithms, plus the two Related-Work baselines used by
// its opening critique.
const (
	// AlgorithmSyncStaged is Algorithm 1 (synchronous, identical starts,
	// known degree bound).
	AlgorithmSyncStaged Algorithm = "sync-staged"
	// AlgorithmSyncGrowing is Algorithm 2 (synchronous, identical starts,
	// no degree knowledge).
	AlgorithmSyncGrowing Algorithm = "sync-growing"
	// AlgorithmSyncUniform is Algorithm 3 (synchronous, variable starts,
	// known degree bound).
	AlgorithmSyncUniform Algorithm = "sync-uniform"
	// AlgorithmAsync is Algorithm 4 (asynchronous, drifting clocks with
	// δ ≤ 1/7, known degree bound).
	AlgorithmAsync Algorithm = "async"

	// AlgorithmBaselineUniversal is the Related-Work comparator: one
	// single-channel birthday-protocol instance per channel of the agreed
	// universal set, interleaved across slots. Its cost grows linearly with
	// UniverseSize — the critique the paper opens with. Synchronous,
	// identical start times.
	AlgorithmBaselineUniversal Algorithm = "baseline-universal"
	// AlgorithmBaselineRoundRobin is the deterministic comparator in the
	// spirit of the paper's refs [20–22]: slot t is dedicated to
	// transmitter (t/U) mod N on channel t mod U. Collision-free,
	// deterministic, but Θ(N·U) time. Synchronous, identical start times.
	AlgorithmBaselineRoundRobin Algorithm = "baseline-roundrobin"
)

// RunConfig controls one discovery run.
type RunConfig struct {
	// Algorithm selects the protocol; required.
	Algorithm Algorithm `json:"algorithm"`
	// DeltaEst is the degree upper bound given to the nodes; 0 derives the
	// next power of two above the true Δ (a realistically loose bound).
	// Ignored by AlgorithmSyncGrowing.
	DeltaEst int `json:"deltaEst,omitempty"`
	// Epsilon is the failure probability used to size the default horizon
	// from the matching theorem's bound; default 0.1.
	Epsilon float64 `json:"epsilon,omitempty"`
	// MaxSlots overrides the synchronous horizon (default: the theorem
	// bound for the chosen algorithm).
	MaxSlots int `json:"maxSlots,omitempty"`
	// MaxFrames overrides the asynchronous per-node frame horizon.
	MaxFrames int `json:"maxFrames,omitempty"`
	// FrameLen is the asynchronous local frame length L; default 3.
	FrameLen float64 `json:"frameLen,omitempty"`
	// StartWindow staggers synchronous start slots uniformly in
	// [0, StartWindow); only AlgorithmSyncUniform tolerates it.
	StartWindow int `json:"startWindow,omitempty"`
	// StartSpread staggers asynchronous node start times uniformly in
	// [0, StartSpread) real time units.
	StartSpread float64 `json:"startSpread,omitempty"`
	// DriftBound is the asynchronous clock drift bound δ; nodes get
	// independent bounded random-walk drift processes. Default 0 (ideal
	// clocks). Must be ≤ 1/7 for the paper's guarantee; larger values are
	// allowed for experimentation.
	DriftBound float64 `json:"driftBound,omitempty"`
	// UniverseSize is the agreed universal channel set size assumed by the
	// baseline algorithms (they require such agreement; the paper's
	// algorithms do not). 0 derives the smallest size covering every
	// node's channels. Ignored by the paper's algorithms.
	UniverseSize int `json:"universeSize,omitempty"`
	// LossProb makes channels unreliable: every arriving transmission is
	// independently erased at each receiver with this probability (the
	// paper's Section V extension (b)). Default 0 (reliable).
	LossProb float64 `json:"lossProb,omitempty"`
	// TerminateAfterIdle, if positive, wraps every node with the
	// quiescence termination rule: a node shuts its radio off after this
	// many consecutive slots (synchronous) or frames (asynchronous)
	// without discovering a new neighbor. The run then continues to its
	// horizon rather than stopping at oracle completion, and the Report's
	// termination fields are populated. Default 0 (the paper's forever-
	// running protocols).
	TerminateAfterIdle int `json:"terminateAfterIdle,omitempty"`
	// Dynamics, if non-nil, runs discovery on a time-varying network: node
	// churn, random-waypoint mobility and primary-user spectrum dynamics
	// follow an epoch schedule drawn from the run seed (see
	// internal/dynamics). The coverage target then grows as links appear,
	// so the Report's latency fields replace completion time as the
	// headline. Incompatible with StartWindow — churn schedules subsume
	// staggered starts.
	Dynamics *DynamicsConfig `json:"dynamics,omitempty"`
	// Seed makes the run deterministic; default 1.
	Seed uint64 `json:"seed"`
	// TraceWriter, if non-nil, receives one line per clear reception
	// ("t=… deliver v -> u ch=c"). Intended for tooling; it does not affect
	// the run.
	TraceWriter io.Writer `json:"-"`
	// EventWriter, if non-nil, receives the full engine event stream —
	// deliveries, transmissions, collisions, idle listens, frame
	// boundaries — as NDJSON (one trace.Event per line), the format
	// consumed by cmd/ndtrace. It does not affect the run. Write failures
	// surface as an error after the run completes.
	EventWriter io.Writer `json:"-"`
	// Observer, if non-nil, additionally receives the engine's event
	// stream (sim.Event values) and — when it implements
	// sim.InternalsSink — the end-of-run engine-internals report. It is
	// called from the run's goroutine only and does not affect results;
	// ndsim's -diag flag attaches its telemetry observer here because
	// single runs bypass the harness instrument seam.
	Observer sim.Observer `json:"-"`
}

// DynamicsConfig selects the time-varying behaviours of a run. Any subset
// of the three profiles may be active; zero-valued profiles are off. It is
// the public mirror of dynamics.Spec (see internal/dynamics for the model).
type DynamicsConfig struct {
	// EpochLen is the epoch length in the engine's native time unit: slots
	// for synchronous algorithms (must be a positive whole number), real
	// time units for AlgorithmAsync. Required > 0.
	EpochLen float64 `json:"epochLen"`
	// ChurnJoinFraction / ChurnLeaveFraction make each node independently
	// join late (uniformly within the first ChurnJoinWindow epochs) or
	// leave permanently (uniformly within ChurnLeaveWindow epochs after
	// joining) with the given probabilities.
	ChurnJoinFraction  float64 `json:"churnJoinFraction,omitempty"`
	ChurnJoinWindow    int     `json:"churnJoinWindow,omitempty"`
	ChurnLeaveFraction float64 `json:"churnLeaveFraction,omitempty"`
	ChurnLeaveWindow   int     `json:"churnLeaveWindow,omitempty"`
	// MobilitySpeed > 0 activates random-waypoint motion over the unit
	// square (unit lengths per epoch) with per-epoch edge re-derivation at
	// communication radius MobilityRadius, pausing MobilityPause epochs at
	// each waypoint.
	MobilitySpeed  float64 `json:"mobilitySpeed,omitempty"`
	MobilityRadius float64 `json:"mobilityRadius,omitempty"`
	MobilityPause  int     `json:"mobilityPause,omitempty"`
	// PrimaryEvents > 0 schedules that many primary-user appearances at
	// uniform positions and epochs, each occupying one uniform channel for
	// PrimaryDuration epochs within exclusion radius PrimaryRadius.
	PrimaryEvents   int     `json:"primaryEvents,omitempty"`
	PrimaryDuration int     `json:"primaryDuration,omitempty"`
	PrimaryRadius   float64 `json:"primaryRadius,omitempty"`
}

// spec maps the public knobs onto the internal dynamics spec.
func (d *DynamicsConfig) spec() dynamics.Spec {
	spec := dynamics.Spec{EpochLen: d.EpochLen}
	if d.ChurnJoinFraction > 0 || d.ChurnLeaveFraction > 0 {
		spec.Churn = &dynamics.Churn{
			JoinFraction:  d.ChurnJoinFraction,
			JoinWindow:    d.ChurnJoinWindow,
			LeaveFraction: d.ChurnLeaveFraction,
			LeaveWindow:   d.ChurnLeaveWindow,
		}
	}
	if d.MobilitySpeed > 0 {
		spec.Mobility = &dynamics.Mobility{
			Speed:  d.MobilitySpeed,
			Radius: d.MobilityRadius,
			Pause:  d.MobilityPause,
		}
	}
	if d.PrimaryEvents > 0 {
		spec.Primary = &dynamics.Primary{
			Events:   d.PrimaryEvents,
			Duration: d.PrimaryDuration,
			Radius:   d.PrimaryRadius,
		}
	}
	return spec
}

// Discovery is one entry of a node's neighbor table.
type Discovery struct {
	// Neighbor is the discovered neighbor's node ID.
	Neighbor int `json:"neighbor"`
	// CommonChannels is A(v) ∩ A(u) as reported by the protocol.
	CommonChannels []int `json:"commonChannels"`
}

// Report is the outcome of a discovery run.
type Report struct {
	// Algorithm echoes the run configuration.
	Algorithm Algorithm `json:"algorithm"`
	// Complete is true when every discoverable link was covered within the
	// horizon.
	Complete bool `json:"complete"`
	// Slots is the synchronous completion slot count (valid when Complete
	// and the algorithm is synchronous).
	Slots int `json:"slots,omitempty"`
	// Duration is the asynchronous real completion time since T_s (valid
	// when Complete and the algorithm is AlgorithmAsync).
	Duration float64 `json:"duration,omitempty"`
	// Bound is the paper's analytic bound in the same unit as Slots or
	// Duration: the Theorem 1/2/3 slot bound, or the Theorem 10 real-time
	// bound for AlgorithmAsync.
	Bound float64 `json:"bound"`
	// LinksCovered / LinksTotal report discovery progress.
	LinksCovered int `json:"linksCovered"`
	LinksTotal   int `json:"linksTotal"`
	// MeanDutyCycle is the mean fraction of simulated slots with the radio
	// on, over all nodes (synchronous runs only; 0 for asynchronous runs).
	// Without termination the paper's protocols never idle, so this is 1.0
	// up to start-stagger effects; with TerminateAfterIdle it is the energy
	// saving headline.
	MeanDutyCycle float64 `json:"meanDutyCycle,omitempty"`
	// TerminatedNodes counts nodes that went quiet under the
	// TerminateAfterIdle rule (0 when the rule is off).
	TerminatedNodes int `json:"terminatedNodes,omitempty"`
	// MeanActiveUnits is the mean per-node count of radio-on slots
	// (synchronous) or frames (asynchronous) when TerminateAfterIdle is
	// active — the energy proxy.
	MeanActiveUnits float64 `json:"meanActiveUnits,omitempty"`
	// Epochs is the dynamic world's scheduled horizon in epochs (0 for
	// static runs).
	Epochs int `json:"epochs,omitempty"`
	// MeanDiscoveryLatency is the mean per-link discovery latency of a
	// dynamic run — coverage time minus the covered link's birth time, in
	// the engine's time unit — over all covered links. 0 for static runs
	// (where completion time is the headline) and when nothing was covered.
	MeanDiscoveryLatency float64 `json:"meanDiscoveryLatency,omitempty"`
	// Tables holds each node's discovered neighbors, indexed by node ID.
	Tables [][]Discovery `json:"tables"`
	// Curve is the discovery progress curve: cumulative covered-link count
	// at each first-coverage instant (slot index for synchronous runs,
	// real time for asynchronous runs), sorted by time.
	Curve []ProgressPoint `json:"curve"`
}

// ProgressPoint is one step of a discovery progress curve.
type ProgressPoint struct {
	// Time is the coverage instant (slots or real time).
	Time float64 `json:"time"`
	// Covered is the cumulative number of covered links at Time.
	Covered int `json:"covered"`
}

// Run executes a discovery run on the network.
func Run(n *Network, cfg RunConfig) (*Report, error) {
	return runWithScratch(n, cfg, nil)
}

// runWithScratch is Run with an optional per-worker engine scratch (nil
// means the engines allocate private state). RunTrials threads the harness
// pool's scratch through here so consecutive trials on one worker reuse
// engine buffers.
func runWithScratch(n *Network, cfg RunConfig, scratch *harness.Scratch) (*Report, error) {
	if n == nil {
		return nil, fmt.Errorf("m2hew: nil network")
	}
	cfg, sc, err := runDefaults(n, cfg)
	if err != nil {
		return nil, err
	}
	switch cfg.Algorithm {
	case AlgorithmSyncStaged, AlgorithmSyncGrowing, AlgorithmSyncUniform,
		AlgorithmBaselineUniversal, AlgorithmBaselineRoundRobin:
		return runSync(n, cfg, sc, scratch)
	case AlgorithmAsync:
		return runAsync(n, cfg, sc, scratch)
	default:
		return nil, fmt.Errorf("m2hew: unknown algorithm %q", cfg.Algorithm)
	}
}

// RunTrials executes trials independent discovery runs of the same
// configuration on the harness pool and returns their reports in trial
// order. Trial t runs with a seed derived deterministically from cfg.Seed,
// so the result is a pure function of (network, cfg, trials) regardless of
// scheduling; trial 0 uses cfg.Seed itself, making RunTrials(n, cfg, 1)
// report exactly what Run(n, cfg) does. A non-nil TraceWriter is rejected:
// concurrent trials would interleave their traces (trace single runs via
// Run instead).
func RunTrials(n *Network, cfg RunConfig, trials int) ([]*Report, error) {
	if n == nil {
		return nil, fmt.Errorf("m2hew: nil network")
	}
	if trials < 1 {
		return nil, fmt.Errorf("m2hew: trials %d < 1", trials)
	}
	if cfg.TraceWriter != nil {
		return nil, fmt.Errorf("m2hew: RunTrials does not support TraceWriter; trace individual runs with Run")
	}
	if cfg.EventWriter != nil {
		return nil, fmt.Errorf("m2hew: RunTrials does not support EventWriter; concurrent trials would interleave their event logs")
	}
	if cfg.Observer != nil {
		return nil, fmt.Errorf("m2hew: RunTrials does not support Observer; concurrent trials would share it (use the harness instrument seam instead)")
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	// Per-trial seeds come from a dedicated stream (splitmix via rng) drawn
	// sequentially before the pool starts, so every trial is reproducible in
	// isolation by passing its seed to Run.
	seeds := make([]uint64, trials)
	seeds[0] = cfg.Seed
	seedSrc := rng.New(cfg.Seed)
	for t := 1; t < trials; t++ {
		seeds[t] = seedSrc.Uint64()
	}
	reports := make([]*Report, trials)
	err := harness.RunScratch(trials, func(t int, sc *harness.Scratch) error {
		trialCfg := cfg
		trialCfg.Seed = seeds[t]
		rep, err := runWithScratch(n, trialCfg, sc)
		if err != nil {
			return fmt.Errorf("trial %d: %w", t, err)
		}
		reports[t] = rep
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("m2hew: %w", err)
	}
	return reports, nil
}

func runDefaults(n *Network, cfg RunConfig) (RunConfig, analytic.Scenario, error) {
	if cfg.Epsilon == 0 {
		cfg.Epsilon = 0.1
	}
	if cfg.Epsilon <= 0 || cfg.Epsilon >= 1 {
		return cfg, analytic.Scenario{}, fmt.Errorf("m2hew: epsilon %v outside (0,1)", cfg.Epsilon)
	}
	if cfg.FrameLen == 0 {
		cfg.FrameLen = 3
	}
	if cfg.FrameLen < 0 {
		return cfg, analytic.Scenario{}, fmt.Errorf("m2hew: negative frame length %v", cfg.FrameLen)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.StartWindow < 0 || cfg.StartSpread < 0 {
		return cfg, analytic.Scenario{}, fmt.Errorf("m2hew: negative start stagger")
	}
	if cfg.DriftBound < 0 || cfg.DriftBound >= 1 {
		return cfg, analytic.Scenario{}, fmt.Errorf("m2hew: drift bound %v outside [0,1)", cfg.DriftBound)
	}
	if cfg.StartWindow > 0 && cfg.Algorithm != AlgorithmSyncUniform {
		return cfg, analytic.Scenario{}, fmt.Errorf(
			"m2hew: %q assumes identical start times; use %q for staggered starts",
			cfg.Algorithm, AlgorithmSyncUniform)
	}
	if cfg.LossProb < 0 || cfg.LossProb >= 1 {
		return cfg, analytic.Scenario{}, fmt.Errorf("m2hew: loss probability %v outside [0,1)", cfg.LossProb)
	}
	if cfg.TerminateAfterIdle < 0 {
		return cfg, analytic.Scenario{}, fmt.Errorf("m2hew: negative idle limit %d", cfg.TerminateAfterIdle)
	}
	if d := cfg.Dynamics; d != nil {
		if d.EpochLen <= 0 {
			return cfg, analytic.Scenario{}, fmt.Errorf("m2hew: dynamics epoch length %v must be positive", d.EpochLen)
		}
		if cfg.StartWindow > 0 {
			return cfg, analytic.Scenario{}, fmt.Errorf("m2hew: dynamics and start windows are incompatible; churn schedules subsume staggered starts")
		}
		if cfg.Algorithm != AlgorithmAsync && d.EpochLen != math.Trunc(d.EpochLen) {
			return cfg, analytic.Scenario{}, fmt.Errorf("m2hew: synchronous dynamics need a whole number of slots per epoch, got %v", d.EpochLen)
		}
	}
	p := n.params
	delta := p.Delta
	if delta < 1 {
		delta = 1 // edgeless networks: trivially complete
	}
	if cfg.DeltaEst == 0 {
		cfg.DeltaEst = nextPow2(delta)
	}
	if cfg.DeltaEst < delta {
		return cfg, analytic.Scenario{}, fmt.Errorf(
			"m2hew: degree estimate %d below true max degree %d; the paper's bounds need an upper bound",
			cfg.DeltaEst, delta)
	}
	sc := analytic.Scenario{
		N: p.N, S: p.S, Delta: delta, DeltaEst: cfg.DeltaEst,
		Rho: p.Rho, Eps: cfg.Epsilon,
	}
	if p.N < 2 {
		// Single-node networks have nothing to discover; synthesize a
		// trivially valid scenario for the bound fields.
		sc.N = 2
	}
	if sc.S < 1 {
		sc.S = 1
	}
	if err := sc.Validate(); err != nil {
		return cfg, analytic.Scenario{}, fmt.Errorf("m2hew: %w", err)
	}
	return cfg, sc, nil
}

func runSync(n *Network, cfg RunConfig, sc analytic.Scenario, scratch *harness.Scratch) (*Report, error) {
	universeSize := cfg.UniverseSize
	if universeSize == 0 {
		if maxC, ok := n.inner.Universe().Max(); ok {
			universeSize = int(maxC) + 1
		} else {
			universeSize = 1
		}
	}
	var bound float64
	switch cfg.Algorithm {
	case AlgorithmSyncStaged:
		bound = sc.Theorem1Slots()
	case AlgorithmSyncGrowing:
		bound = sc.Theorem2Slots()
	case AlgorithmSyncUniform:
		bound = sc.Theorem3Slots()
	case AlgorithmBaselineRoundRobin:
		// The deterministic schedule provably finishes in exactly one cycle.
		bound = float64(n.N() * universeSize)
	default: // AlgorithmBaselineUniversal
		// No bound from the paper: U interleaved single-channel instances;
		// size the default horizon as U × the Theorem 1 slot bound.
		bound = 0
	}
	maxSlots := cfg.MaxSlots
	if maxSlots == 0 {
		switch cfg.Algorithm {
		case AlgorithmBaselineUniversal:
			maxSlots = universeSize * (int(sc.Theorem1Slots()) + 1)
		default:
			maxSlots = cfg.StartWindow + int(bound) + 1
		}
		if cfg.LossProb > 0 {
			// Erasures thin deliveries by ~(1−p); widen the horizon so the
			// run can still complete within it.
			maxSlots = int(float64(maxSlots) / (1 - cfg.LossProb))
		}
		if cfg.TerminateAfterIdle > 0 {
			// Leave room for the quiescence cascade after the last
			// discovery.
			maxSlots += 6 * cfg.TerminateAfterIdle
		}
	}
	root := rng.New(cfg.Seed)
	var loss *sim.LossModel
	if cfg.LossProb > 0 {
		var err error
		loss, err = sim.NewLossModel(cfg.LossProb, root.Split())
		if err != nil {
			return nil, fmt.Errorf("m2hew: %w", err)
		}
	}
	protos := make([]sim.SyncProtocol, n.N())
	var (
		hold             []interface{ Neighbors() *core.NeighborTable }
		syncTermWrappers []*core.SyncTerminating
	)
	for u := 0; u < n.N(); u++ {
		avail := n.inner.Avail(topology.NodeID(u))
		var (
			p   sim.SyncProtocol
			t   interface{ Neighbors() *core.NeighborTable }
			err error
		)
		switch cfg.Algorithm {
		case AlgorithmSyncStaged:
			sp, e := core.NewSyncStaged(avail, cfg.DeltaEst, root.Split())
			p, t, err = sp, sp, e
		case AlgorithmSyncGrowing:
			sp, e := core.NewSyncGrowing(avail, root.Split())
			p, t, err = sp, sp, e
		case AlgorithmBaselineUniversal:
			sp, e := baseline.NewUniversalBirthday(avail, universeSize, cfg.DeltaEst, root.Split())
			p, t, err = sp, sp, e
		case AlgorithmBaselineRoundRobin:
			sp, e := baseline.NewDeterministicRoundRobin(topology.NodeID(u), avail, universeSize, n.N())
			p, t, err = sp, sp, e
		default:
			sp, e := core.NewSyncUniform(avail, cfg.DeltaEst, root.Split())
			p, t, err = sp, sp, e
		}
		if err != nil {
			return nil, fmt.Errorf("m2hew: node %d: %w", u, err)
		}
		if cfg.TerminateAfterIdle > 0 {
			disc, ok := p.(core.SyncDiscoverer)
			if !ok {
				return nil, fmt.Errorf("m2hew: %q cannot be wrapped for termination", cfg.Algorithm)
			}
			wrapped, err := core.NewSyncTerminating(disc, cfg.TerminateAfterIdle)
			if err != nil {
				return nil, fmt.Errorf("m2hew: node %d: %w", u, err)
			}
			p, t = wrapped, wrapped
			syncTermWrappers = append(syncTermWrappers, wrapped)
		}
		protos[u] = p
		hold = append(hold, t)
	}
	var starts []int
	if cfg.StartWindow > 0 {
		starts = make([]int, n.N())
		for u := range starts {
			starts[u] = root.IntN(cfg.StartWindow)
		}
	}
	// The world draws after every static stream (loss, protocols, starts),
	// so a run with Dynamics == nil consumes exactly the splits it always
	// did.
	var world *dynamics.World
	if cfg.Dynamics != nil {
		epochSlots := int(cfg.Dynamics.EpochLen)
		epochs := (maxSlots + epochSlots - 1) / epochSlots
		if epochs < 1 {
			epochs = 1
		}
		var err error
		world, err = dynamics.NewWorld(n.inner, cfg.Dynamics.spec(), epochs, root.Split())
		if err != nil {
			return nil, fmt.Errorf("m2hew: %w", err)
		}
	}
	traceObs, finishTrace := runObservers(cfg)
	meter, err := metrics.NewEnergyMeter(n.N())
	if err != nil {
		return nil, fmt.Errorf("m2hew: %w", err)
	}
	syncCfg := sim.SyncConfig{
		Network:    n.inner,
		Protocols:  protos,
		StartSlots: starts,
		MaxSlots:   maxSlots,
		// With termination active the interesting behaviour continues past
		// oracle completion (nodes must notice quiescence), so run out the
		// horizon.
		RunToMaxSlots: cfg.TerminateAfterIdle > 0,
		Loss:          loss,
		Observer:      sim.MultiObserver(traceObs, sim.EnergyObserver(meter)),
		Dynamics:      world,
	}
	if scratch != nil {
		syncCfg.Scratch = scratch.Sync()
	}
	res, err := sim.RunSync(syncCfg)
	if err != nil {
		return nil, fmt.Errorf("m2hew: %w", err)
	}
	if err := finishTrace(); err != nil {
		return nil, fmt.Errorf("m2hew: %w", err)
	}
	report := &Report{
		Algorithm:    cfg.Algorithm,
		Complete:     res.Complete,
		Bound:        bound,
		LinksCovered: res.Coverage.TargetSize() - res.Coverage.Remaining(),
		LinksTotal:   res.Coverage.TargetSize(),
		Tables:       tablesOf(n, hold),
		Curve:        curveOf(res.Coverage),
	}
	if res.Complete {
		report.Slots = res.CompletionSlot + 1
	}
	if world != nil {
		report.Epochs = world.Horizon()
		if lat := res.Coverage.Latencies(); len(lat) > 0 {
			report.MeanDiscoveryLatency = metrics.Summarize(lat).Mean
		}
	}
	report.MeanDutyCycle = meter.MeanDutyCycle()
	for _, w := range syncTermWrappers {
		if w.Terminated() {
			report.TerminatedNodes++
		}
		report.MeanActiveUnits += float64(w.ActiveSlots())
	}
	if len(syncTermWrappers) > 0 {
		report.MeanActiveUnits /= float64(len(syncTermWrappers))
	}
	return report, nil
}

func runAsync(n *Network, cfg RunConfig, sc analytic.Scenario, scratch *harness.Scratch) (*Report, error) {
	bound := sc.Theorem10Span(cfg.FrameLen, cfg.DriftBound)
	maxFrames := cfg.MaxFrames
	if maxFrames == 0 {
		maxFrames = int(math.Ceil(sc.Theorem9Frames())) + int(cfg.StartSpread/cfg.FrameLen) + 2
		if cfg.LossProb > 0 {
			// Erasures thin deliveries by ~(1−p); widen the horizon to
			// match (as the synchronous path does).
			maxFrames = int(float64(maxFrames) / (1 - cfg.LossProb))
		}
		// Cap the horizon: the bound is very conservative and generating
		// its full frame count is wasteful; an incomplete run reports
		// Complete=false either way.
		if maxFrames > 20000 {
			maxFrames = 20000
		}
	}
	if cfg.TerminateAfterIdle > 0 {
		maxFrames += 2 * cfg.TerminateAfterIdle
	}
	root := rng.New(cfg.Seed)
	var loss *sim.LossModel
	if cfg.LossProb > 0 {
		var err error
		loss, err = sim.NewLossModel(cfg.LossProb, root.Split())
		if err != nil {
			return nil, fmt.Errorf("m2hew: %w", err)
		}
	}
	nodes := make([]sim.AsyncNode, n.N())
	var (
		hold              []interface{ Neighbors() *core.NeighborTable }
		asyncTermWrappers []*core.AsyncTerminating
	)
	for u := 0; u < n.N(); u++ {
		p, err := core.NewAsync(n.inner.Avail(topology.NodeID(u)), cfg.DeltaEst, root.Split())
		if err != nil {
			return nil, fmt.Errorf("m2hew: node %d: %w", u, err)
		}
		var proto sim.AsyncProtocol = p
		var table interface{ Neighbors() *core.NeighborTable } = p
		if cfg.TerminateAfterIdle > 0 {
			wrapped, err := core.NewAsyncTerminating(p, cfg.TerminateAfterIdle)
			if err != nil {
				return nil, fmt.Errorf("m2hew: node %d: %w", u, err)
			}
			proto, table = wrapped, wrapped
			asyncTermWrappers = append(asyncTermWrappers, wrapped)
		}
		var drift clock.DriftProcess = clock.Ideal
		if cfg.DriftBound > 0 {
			drift, err = clock.NewRandomWalk(cfg.DriftBound, float64(cfg.DriftBound/4)+0.001, root.Split())
			if err != nil {
				return nil, fmt.Errorf("m2hew: node %d drift: %w", u, err)
			}
		}
		start := 0.0
		if cfg.StartSpread > 0 {
			start = root.Float64() * cfg.StartSpread
		}
		nodes[u] = sim.AsyncNode{Protocol: proto, Start: start, Drift: drift}
		hold = append(hold, table)
	}
	// The world draws after every static stream (loss, protocols, drifts,
	// starts), so a run with Dynamics == nil consumes exactly the splits it
	// always did.
	var world *dynamics.World
	if cfg.Dynamics != nil {
		// Size the epoch horizon to the run's nominal real-time span; drifted
		// clocks may overrun it slightly, where EpochOf clamps to the final
		// epoch (whose state persists).
		span := cfg.StartSpread + float64(float64(maxFrames)*cfg.FrameLen*(1+cfg.DriftBound))
		epochs := int(span/cfg.Dynamics.EpochLen) + 1
		var err error
		world, err = dynamics.NewWorld(n.inner, cfg.Dynamics.spec(), epochs, root.Split())
		if err != nil {
			return nil, fmt.Errorf("m2hew: %w", err)
		}
	}
	traceObs, finishTrace := runObservers(cfg)
	simCfg := sim.AsyncConfig{
		Network:   n.inner,
		Nodes:     nodes,
		FrameLen:  cfg.FrameLen,
		MaxFrames: maxFrames,
		Loss:      loss,
		Observer:  traceObs,
		Dynamics:  world,
	}
	if scratch != nil {
		simCfg.Scratch = scratch.Async()
	}
	var (
		res *sim.AsyncResult
		err error
	)
	if cfg.TerminateAfterIdle > 0 {
		// The termination wrapper is adaptive (its schedule depends on what
		// it received), which requires the online engine.
		res, err = sim.RunAsyncOnline(simCfg)
	} else {
		res, err = sim.RunAsync(simCfg)
	}
	if err != nil {
		return nil, fmt.Errorf("m2hew: %w", err)
	}
	if err := finishTrace(); err != nil {
		return nil, fmt.Errorf("m2hew: %w", err)
	}
	report := &Report{
		Algorithm:    cfg.Algorithm,
		Complete:     res.Complete,
		Bound:        bound,
		LinksCovered: res.Coverage.TargetSize() - res.Coverage.Remaining(),
		LinksTotal:   res.Coverage.TargetSize(),
		Tables:       tablesOf(n, hold),
		Curve:        curveOf(res.Coverage),
	}
	if res.Complete {
		report.Duration = res.CompletionTime - res.Ts
	}
	if world != nil {
		report.Epochs = world.Horizon()
		if lat := res.Coverage.Latencies(); len(lat) > 0 {
			report.MeanDiscoveryLatency = metrics.Summarize(lat).Mean
		}
	}
	for _, w := range asyncTermWrappers {
		if w.Terminated() {
			report.TerminatedNodes++
		}
		report.MeanActiveUnits += float64(w.ActiveFrames())
	}
	if len(asyncTermWrappers) > 0 {
		report.MeanActiveUnits /= float64(len(asyncTermWrappers))
	}
	return report, nil
}

func tablesOf(n *Network, hold []interface{ Neighbors() *core.NeighborTable }) [][]Discovery {
	tables := make([][]Discovery, len(hold))
	for u, h := range hold {
		tbl := h.Neighbors()
		entries := make([]Discovery, 0, tbl.Len())
		for _, v := range tbl.Neighbors() {
			common, _ := tbl.Common(v)
			entries = append(entries, Discovery{
				Neighbor:       int(v),
				CommonChannels: setToInts(common),
			})
		}
		tables[u] = entries
	}
	_ = n
	return tables
}

// runObservers builds the optional trace observers of one run — the
// human-readable reception trace (TraceWriter) and the full NDJSON event
// log (EventWriter) — plus a finish function surfacing the writers' sticky
// errors once the run is over.
func runObservers(cfg RunConfig) (sim.Observer, func() error) {
	var (
		obs      sim.Observer
		finalize []func() error
	)
	if cfg.TraceWriter != nil {
		w := trace.NewWriter(cfg.TraceWriter)
		obs = sim.MultiObserver(obs, sim.TraceObserver(w))
		finalize = append(finalize, w.Err)
	}
	if cfg.EventWriter != nil {
		jw := trace.NewJSONWriter(cfg.EventWriter)
		obs = sim.MultiObserver(obs, sim.EventTraceObserver(jw))
		finalize = append(finalize, jw.Err)
	}
	if cfg.Observer != nil {
		obs = sim.MultiObserver(obs, cfg.Observer)
	}
	return obs, func() error {
		for _, f := range finalize {
			if err := f(); err != nil {
				return err
			}
		}
		return nil
	}
}

// nextPow2 returns the smallest power of two ≥ x (and ≥ 2).
func nextPow2(x int) int {
	p := 2
	for p < x {
		p *= 2
	}
	return p
}

// curveOf converts the oracle's coverage curve to the public shape.
func curveOf(cov *metrics.Coverage) []ProgressPoint {
	points := cov.Curve()
	out := make([]ProgressPoint, len(points))
	for i, p := range points {
		out[i] = ProgressPoint{Time: p.Time, Covered: p.Covered}
	}
	return out
}
