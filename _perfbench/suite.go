package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"m2hew/internal/experiment"
)

// goldenPath is the quick-suite output the ndbench tests pin, relative to
// the repository root the benchmark runs from.
const goldenPath = "cmd/ndbench/testdata/all_quick_seed11.md"

// suiteSeed is the seed EXPERIMENTS.md is generated with. The suite runs
// at this fixed seed whatever the workload seed: the experiments draw their
// own networks, and their work differs by several percent from seed to seed.
const suiteSeed = 1

// suiteInstance runs experiment.All() at default trials, one experiment
// after another, each on the harness pool as ndbench runs it.
type suiteInstance struct {
	opts     experiment.Options
	entries  []experiment.Entry
	goldenOK bool
	goldenAt int // first differing byte when !goldenOK
}

// setupSuite has no inputs to build, so its set-up is the warm-up the
// measured pass needs: one quick suite at seed 11 with 3 trials, which also
// must reproduce the pinned golden output byte for byte.
func setupSuite(uint64) (instance, error) {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, err
	}
	entries := experiment.All()
	var got bytes.Buffer
	for _, e := range entries {
		table, err := e.Run(experiment.Options{Quick: true, Trials: 3, Seed: 11})
		if err != nil {
			return nil, fmt.Errorf("quick %s: %w", e.ID, err)
		}
		fmt.Fprintln(&got, table.Markdown())
	}
	s := &suiteInstance{opts: experiment.Options{Seed: suiteSeed}, entries: entries, goldenOK: true}
	if g := got.Bytes(); !bytes.Equal(g, want) {
		s.goldenOK = false
		for s.goldenAt < len(g) && s.goldenAt < len(want) && g[s.goldenAt] == want[s.goldenAt] {
			s.goldenAt++
		}
	}
	return s, nil
}

func (s *suiteInstance) pass(ins *items, _ int) (passResult, error) {
	tr := ins.tr
	var pr passResult
	pr.attempted = 1 + len(s.entries)
	if !s.goldenOK {
		pr.fail(1, "quick suite at seed 11 differs from %s at byte %d", goldenPath, s.goldenAt)
	}
	err := pr.measure(func() error {
		passStart := time.Now()
		for _, e := range s.entries {
			layer := "experiment." + e.ID
			ins.setParent(layer)
			start := time.Now()
			table, err := e.Run(s.opts)
			tr.record(layer, rootLayer, start, time.Now(), false)
			switch {
			case err != nil:
				pr.fail(1, "%s: %v", e.ID, err)
			case table == nil || len(table.Rows) == 0:
				pr.fail(1, "%s returned no table rows", e.ID)
			}
		}
		tr.record(rootLayer, "", passStart, time.Now(), false)
		return nil
	})
	pr.runs, pr.busy = ins.take()
	pr.attempted += len(pr.runs)
	pr.tally = ins.tally
	return pr, err
}

func (s *suiteInstance) layers(metrics) error { return nil }
