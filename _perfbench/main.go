// Command perfbench is the repository benchmark. It drives the m2hew
// library and the modules under internal/ from outside on four workloads,
// checks every output against the paper's bounds and the ground-truth
// neighbor tables, and prints each metric by name with its unit, ending
// with one JSON result line.
//
// An untraced run (-trace 0) sets the workload up several times, runs the
// measured pass as often as -seconds allows, and reports the end-to-end
// metrics. A traced run (-trace 1) sets up once, runs one untraced and one
// traced pass, and reports per-layer metrics from spans the benchmark
// records around its own calls into each module, the tracing overhead, and
// the layer-sum check. NOTES.md explains the workloads and the metrics.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash _perfbench/run.sh --workload sync-n200 --seed 1 --seconds 15 --trace 0
//	bash _perfbench/run.sh --describe > BENCHMARK.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"m2hew/internal/harness"
)

// runSeconds is how long one untraced run measures by default.
const runSeconds = 20

// metricDef is one reported metric. bound applies to end-to-end metrics
// only: the share of the parent's median by which it may get worse.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics of an untraced run. pass_frac is the share of
// attempted runs that returned no error and passed the output check
// (1 − failed_frac); it is reported this way round so that it is never 0.
//
// The timing bounds are wide because the measuring host is: a plain CPU
// loop on it runs up to 1.6 times slower for stretches of seconds to
// minutes. live_heap_mb is wide because the suite's live heap is about
// 80 KB and moves by about 10 KB from run to run. NOTES.md has the numbers.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"run_ms_p50", "ms", "lower", 0.25},
	{"run_ms_tail", "ms", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.1},
	{"live_heap_mb", "MB", "lower", 0.25},
	{"pass_frac", "frac", "higher", 0.01},
}

// perLayer are the metrics of a traced run. Every workload reports all of
// them; a layer a workload does not exercise reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"topology.generate_s", "s", "lower", 0},
		{"topology.assign_s", "s", "lower", 0},
		{"topology.tiling_s", "s", "lower", 0},
		{"topology.edges", "count", "higher", 0},
		{"sim.tables_s", "s", "lower", 0},
		{"sim.tables_live_mb", "MB", "lower", 0},
		{"core.protocols_s", "s", "lower", 0},
		{"core.protocols_alloc_mb", "MB", "lower", 0},
		{"sim.run_s", "s", "lower", 0},
		{"sim.ns_per_node_slot", "ns", "lower", 0},
		{"sim.alloc_bytes_per_node_slot", "B", "lower", 0},
		{"sim.slots", "count", "higher", 0},
		{"sim.tiled_slots", "count", "higher", 0},
		{"sim.batched_slots", "count", "higher", 0},
		{"sim.kernel_slots", "count", "lower", 0},
		{"sim.scalar_slots", "count", "lower", 0},
		{"sim.stepper_batch_mean", "count", "higher", 0},
		{"sim.scratch_table_hit_ratio", "frac", "higher", 0},
		{"sim.halo_words_per_slot", "count", "lower", 0},
		{"dynamics.world_s", "s", "lower", 0},
		{"dynamics.epochs", "count", "higher", 0},
		{"m2hew.prepare_s", "s", "lower", 0},
		{"m2hew.report_s", "s", "lower", 0},
		{"harness.items", "count", "higher", 0},
		{"harness.item_ms_p50", "ms", "lower", 0},
		{"harness.busy_frac", "frac", "higher", 0},
		{"harness.idle_s", "s", "lower", 0},
	}
	for i := 1; i <= 21; i++ {
		defs = append(defs, metricDef{fmt.Sprintf("experiment.E%d_s", i), "s", "lower", 0})
	}
	return append(defs,
		metricDef{"runtime.gc_cycles", "count", "lower", 0},
		metricDef{"runtime.gc_pause_s", "s", "lower", 0},
		metricDef{"trace.wall_s", "s", "lower", 0},
		metricDef{"trace.overhead_s", "s", "lower", 0},
		metricDef{"trace.unattributed_frac", "frac", "lower", 0},
	)
}()

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// setupReps is how many times an untraced run sets the workload up;
	// setup_s is the median.
	setupReps int
	// minPasses is the fewest passes an untraced run makes, even past
	// -seconds, so that its pooled runs always support tailPct.
	minPasses int
	// tailPct is the percentile run_ms_tail reports over a run's pooled
	// runs: the highest one with at least ten runs beyond it at minPasses.
	tailPct float64
	// pairs is how many untraced and traced passes a traced run alternates;
	// the tracing overhead is the difference of their median walls.
	pairs int
	setup func(seed uint64) (instance, error)
}

// instance is a workload set up from one seed.
type instance interface {
	// pass runs the k-th pass of measured work and checks its outputs,
	// reporting harness work items to ins. Every pass does the same amount
	// of work. With a non-nil ins.tr it records a span around each module
	// call.
	pass(ins *items, k int) (passResult, error)
	// layers fills the per-layer metrics that do not come from the traced
	// pass's spans: set-up timings and direct probes of single modules.
	layers(m metrics) error
}

// passResult is one measured pass. wall and alloc cover only the measured
// windows; output checks run outside them.
type passResult struct {
	window
	runs      []float64 // per-run wall, ms
	busy      time.Duration
	attempted int
	failed    int
	problems  []string
	tally     simTally // engine internals of a traced pass
}

// fail counts n failed runs and keeps the first few reasons.
func (p *passResult) fail(n int, format string, args ...any) {
	p.failed += n
	if len(p.problems) < 5 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = []workload{
	{
		name:      "suite",
		why:       "the full E1-E21 experiment suite users run to reproduce EXPERIMENTS.md: short trials on every engine path, the async engines and the harness pool",
		setupReps: 3, minPasses: 2, tailPct: 99, pairs: 1,
		setup: setupSuite,
	},
	{
		name:      "sync-n200",
		why:       "loss-free static Algorithm 3 trials through m2hew.RunTrials: the batched resolver, per-trial protocols and report building",
		setupReps: 31, minPasses: 5, tailPct: 99, pairs: 3,
		setup: func(seed uint64) (instance, error) { return setupSync(seed, false) },
	},
	{
		name:      "sync-n200-lossy-churn",
		why:       "the same network with 20% loss, churn and primary users: the serial lossy resolver with epoch snapshot swaps",
		setupReps: 31, minPasses: 5, tailPct: 90, pairs: 3,
		setup: func(seed uint64) (instance, error) { return setupSync(seed, true) },
	},
	{
		name:      "scale-100k",
		why:       "sim.RunSync on a streamed 100k-node graph on the tiled path: set-up, derived tables, memory and the tile pool",
		setupReps: 3, minPasses: 5, tailPct: 75, pairs: 3,
		setup: setupScale,
	},
}

// metrics maps metric names to values; units come from the definitions.
type metrics map[string]float64

func main() {
	name := flag.String("workload", "", "workload to run: suite, sync-n200, sync-n200-lossy-churn or scale-100k")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", runSeconds, "how long an untraced run measures")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	describe := flag.Bool("describe", false, "print the BENCHMARK.json description and exit")
	flag.Parse()
	if *describe {
		if err := writeDescription(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *trace < 0 || *trace > 1 || *seed == 0 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload (suite, sync-n200, sync-n200-lossy-churn, scale-100k), a non-zero -seed, -seconds > 0 and -trace 0 or 1")
		os.Exit(2)
	}
	var err error
	if *trace == 1 {
		err = runTraced(wl, *seed)
	} else {
		err = runUntraced(wl, *seed, time.Duration(*seconds*float64(time.Second)))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// measurePass runs pass k with a fresh harness instrument installed.
func measurePass(inst instance, k int, tr *tracer) (passResult, error) {
	ins := &items{tr: tr, parent: rootLayer}
	harness.SetInstrument(ins)
	defer harness.SetInstrument(nil)
	return inst.pass(ins, k)
}

func runUntraced(wl *workload, seed uint64, budget time.Duration) error {
	var (
		inst   instance
		setups []float64
	)
	for i := 0; i < wl.setupReps; i++ {
		inst = nil // let the previous set-up's inputs be collected first
		liveHeapMB()
		start := time.Now()
		var err error
		inst, err = wl.setup(seed)
		if err != nil {
			return fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	heap := liveHeapMB()

	var (
		walls, allocs, runs []float64
		attempted, failed   int
		problems            []string
	)
	start := time.Now()
	for k := 0; ; k++ {
		passStart := time.Now()
		pr, err := measurePass(inst, k, nil)
		if err != nil {
			return fmt.Errorf("%s pass: %w", wl.name, err)
		}
		walls = append(walls, pr.wall.Seconds())
		allocs = append(allocs, float64(pr.alloc)/1e6)
		runs = append(runs, pr.runs...)
		attempted += pr.attempted
		failed += pr.failed
		problems = append(problems, pr.problems...)
		if k+1 >= wl.minPasses && time.Since(start)+time.Since(passStart) > budget {
			break
		}
	}

	m := metrics{
		"setup_s":      median(setups),
		"wall_s":       median(walls),
		"run_ms_p50":   median(runs),
		"alloc_mb":     median(allocs),
		"live_heap_mb": heap,
		"pass_frac":    1 - float64(failed)/float64(attempted),
	}
	tailMs, beyond := percentile(runs, wl.tailPct)
	if beyond >= 10 {
		m["run_ms_tail"] = tailMs
	}
	fmt.Printf("workload %s  seed %d  passes %d  runs %d\n", wl.name, seed, len(walls), len(runs))
	notes := map[string]string{
		"setup_s":      fmt.Sprintf("median of %d set-ups", len(setups)),
		"wall_s":       fmt.Sprintf("median of %d passes", len(walls)),
		"run_ms_p50":   fmt.Sprintf("median of %d runs", len(runs)),
		"run_ms_tail":  fmt.Sprintf("p%g of %d runs, %d beyond it", wl.tailPct, len(runs), beyond),
		"live_heap_mb": "after forced GCs at the end of set-up",
		"pass_frac":    fmt.Sprintf("failed_frac %g: %d of %d runs failed", float64(failed)/float64(attempted), failed, attempted),
	}
	for _, d := range endToEnd {
		if v, ok := m[d.Name]; ok {
			fmt.Printf("  %-14s %14.6f %-5s %s\n", d.Name, v, d.Unit, notes[d.Name])
		} else {
			fmt.Printf("  %-14s %14s %-5s too few runs beyond p%g\n", d.Name, "-", d.Unit, wl.tailPct)
		}
	}
	for _, p := range problems {
		fmt.Println("  check failed:", p)
	}
	return emit(failed == 0, attempted, failed, m, endToEnd)
}

func runTraced(wl *workload, seed uint64) error {
	inst, err := wl.setup(seed)
	if err != nil {
		return fmt.Errorf("%s set-up: %w", wl.name, err)
	}
	// Untraced and traced passes alternate over the same inputs, so that
	// their difference is the tracing overhead; the last traced pass gives
	// the per-layer numbers.
	var (
		plainWalls, tracedWalls []float64
		tr                      *tracer
		pr                      passResult
		gc0, gc1                uint32
		pause0, pause1          time.Duration
		attempted, failed       int
		problems                []string
	)
	for i := 0; i < wl.pairs; i++ {
		plain, err := measurePass(inst, 0, nil)
		if err != nil {
			return fmt.Errorf("%s untraced pass: %w", wl.name, err)
		}
		plainWalls = append(plainWalls, plain.wall.Seconds())
		liveHeapMB()
		tr = newTracer()
		gc0, pause0 = gcCounters()
		if pr, err = measurePass(inst, 0, tr); err != nil {
			return fmt.Errorf("%s traced pass: %w", wl.name, err)
		}
		gc1, pause1 = gcCounters()
		tracedWalls = append(tracedWalls, pr.wall.Seconds())
		attempted += plain.attempted + pr.attempted
		failed += plain.failed + pr.failed
		problems = append(append(problems, plain.problems...), pr.problems...)
	}

	m := metrics{}
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	wall := pr.wall.Seconds()
	m["trace.wall_s"] = wall
	m["trace.overhead_s"] = median(tracedWalls) - median(plainWalls)
	m["runtime.gc_cycles"] = float64(gc1 - gc0)
	m["runtime.gc_pause_s"] = (pause1 - pause0).Seconds()

	for layer, metric := range map[string]string{"sim.run": "sim.run_s", "m2hew.prepare": "m2hew.prepare_s", "m2hew.report": "m2hew.report_s"} {
		m[metric] = tr.busy(layer).Seconds()
	}
	for i := 1; i <= 21; i++ {
		m[fmt.Sprintf("experiment.E%d_s", i)] = tr.busy(fmt.Sprintf("experiment.E%d", i)).Seconds()
	}
	if n := len(pr.runs); n > 0 && pr.busy > 0 {
		m["harness.items"] = float64(n)
		m["harness.item_ms_p50"] = median(pr.runs)
		m["harness.busy_frac"] = pr.busy.Seconds() / (float64(tr.workers) * wall)
	}
	in := pr.tally.in
	if t := pr.tally; t.nodeSlots > 0 {
		m["sim.ns_per_node_slot"] = float64(t.runTime.Nanoseconds()) / t.nodeSlots
	}
	m["sim.slots"] = float64(in.SlotsSimulated)
	m["sim.tiled_slots"] = float64(in.TiledSlots)
	m["sim.batched_slots"] = float64(in.BatchedSlots)
	m["sim.kernel_slots"] = float64(in.KernelSlots)
	m["sim.scalar_slots"] = float64(in.ScalarSlots)
	if in.StepperBatches > 0 {
		m["sim.stepper_batch_mean"] = float64(in.StepperBatchNodes) / float64(in.StepperBatches)
	}
	if n := in.ScratchTableHits + in.ScratchTableMisses; n > 0 {
		m["sim.scratch_table_hit_ratio"] = float64(in.ScratchTableHits) / float64(n)
	}
	if in.SlotsSimulated > 0 {
		m["sim.halo_words_per_slot"] = float64(in.HaloWordsCopied) / float64(in.SlotsSimulated)
	}
	if err := inst.layers(m); err != nil {
		return fmt.Errorf("%s layer probes: %w", wl.name, err)
	}

	self := tr.selfTimes()
	m["harness.idle_s"] = self["harness.batch"]
	unattributed, problem := layerSum(self, wall)
	m["trace.unattributed_frac"] = unattributed

	fmt.Printf("workload %s  seed %d  traced passes %.4f s  untraced passes %.4f s (medians of %d)\n", wl.name, seed, median(tracedWalls), median(plainWalls), wl.pairs)
	fmt.Println("  layer self times (worker spans weighted 1/workers):")
	for _, layer := range sortedKeys(self) {
		fmt.Printf("    %-24s %10.4f s  %6.2f%%\n", layer, self[layer], 100*self[layer]/wall)
	}
	for _, d := range perLayer {
		fmt.Printf("  %-30s %16.6f %s\n", d.Name, m[d.Name], d.Unit)
	}
	ok := failed == 0
	if problem != "" {
		fmt.Println("  layer-sum check failed:", problem)
		ok = false
	} else {
		fmt.Printf("  layer-sum check passed: unattributed %.4f%% of traced wall (tolerance %.0f%%)\n", 100*unattributed, 100*layerSumTolerance)
	}
	for _, p := range problems {
		fmt.Println("  check failed:", p)
	}
	return emit(ok, attempted, failed, m, perLayer)
}

// emit prints the result line: the last line of standard output.
func emit(correct bool, attempted, failed int, m metrics, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, map[string]value{}}
	for _, d := range defs {
		if v, ok := m[d.Name]; ok {
			out.Metrics[d.Name] = value{v, d.Unit}
		}
	}
	if attempted < 1 {
		return errors.New("no run was attempted")
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// writeDescription prints BENCHMARK.json from the definitions above, so
// the file and the program cannot disagree.
func writeDescription() error {
	type wlDesc struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	desc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wlDesc    `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layerDef  `json:"per_layer"`
	}{
		Command:    []string{"bash", "_perfbench/run.sh"},
		Paths:      []string{"_perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		desc.Workloads = append(desc.Workloads, wlDesc{w.name, w.why})
	}
	for _, d := range perLayer {
		desc.PerLayer = append(desc.PerLayer, layerDef{d.Name, d.Unit, d.Better})
	}
	data, err := json.MarshalIndent(desc, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(data))
	return err
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
