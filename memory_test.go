package m2hew

import (
	"math"
	"runtime"
	"testing"
)

// bytesPerTrial returns the heap bytes one serial RunTrials trial allocates
// on an n-node geometric network of the given radius (Algorithm 3 to
// completion), averaged over the trials of one call.
func bytesPerTrial(t *testing.T, n int, radius float64, trials int) float64 {
	t.Helper()
	nw, err := BuildNetwork(NetworkConfig{
		Nodes:      n,
		Topology:   TopologyGeometric,
		Radius:     radius,
		Universe:   8,
		Channels:   ChannelsUniform,
		SubsetSize: 4,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{Algorithm: AlgorithmSyncUniform, Seed: 11}
	if _, err := RunTrials(nw, cfg, 1); err != nil { // warm the code paths
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	reports, err := RunTrials(nw, cfg, trials)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reports {
		if !rep.Complete {
			t.Fatalf("n=%d trial %d did not complete", n, i)
		}
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(trials)
}

// TestPerTrialStateScalesWithDegree guards the memory shape of a trial:
// discovery state is O(Δ) per node (the paper's output) and the coverage
// oracle O(links), so doubling n at a fixed mean degree should roughly
// double the bytes a trial allocates, plus the logarithmic growth of the
// completion time. Any per-trial structure indexed by n at every node —
// O(n²) in total — would quadruple them instead.
func TestPerTrialStateScalesWithDegree(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation profile of 40 trials")
	}
	// Serial trials: one pool worker, so TotalAlloc counts this test's
	// trials and one worker scratch per call.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const trials = 20
	// Radius ∝ 1/√n keeps the mean degree (≈ nπr²) fixed at about 9.
	small := bytesPerTrial(t, 200, 0.12, trials)
	large := bytesPerTrial(t, 400, 0.12/math.Sqrt2, trials)
	ratio := large / small
	t.Logf("bytes per trial: n=200 %.0f, n=400 %.0f, ratio %.2f", small, large, ratio)
	if ratio > 2.5 {
		t.Errorf("bytes per trial grew %.2f× from n=200 to n=400 at a fixed mean degree; want ≤ 2.5× (O(n²) per-trial state gives ~4×)", ratio)
	}
}
