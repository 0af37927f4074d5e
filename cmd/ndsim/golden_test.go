package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// goldenFile holds one "<scenario> <json|events> <sha256>" line per digest;
// `make golden-update` rewrites it from goldenFile+".got", which the test
// writes whenever a digest moves.
const goldenFile = "testdata/golden.sha256"

// goldenScenarios pins ndsim's output byte for byte across engine
// refactors. Every scenario records two digests: the -json report of an
// unobserved run (the engines' event-free fast paths) and the -events
// NDJSON log of the same run (the per-listener, event-ordered paths); the
// test also requires the report to be identical with and without -events.
var goldenScenarios = []struct {
	name string
	args []string
}{
	{"sync-static", []string{"-nodes", "40", "-channels", "uniform"}},
	{"sync-loss", []string{"-nodes", "40", "-channels", "uniform", "-loss", "0.2"}},
	{"sync-asym", []string{"-nodes", "40", "-channels", "uniform", "-asym", "0.3", "-alg", "sync-uniform"}},
	{"sync-block-overlap", []string{"-nodes", "40", "-channels", "block-overlap"}},
	{"sync-span-cap", []string{"-nodes", "40", "-span-cap", "2", "-alg", "sync-growing"}},
	{"sync-churn", []string{"-nodes", "40", "-channels", "uniform", "-epoch-len", "20", "-churn-join", "0.3", "-churn-leave", "0.2", "-max-slots", "1500"}},
	{"sync-mobility-pu", []string{"-nodes", "40", "-channels", "primary-users", "-epoch-len", "20", "-mobility-speed", "0.05", "-pu-events", "6", "-max-slots", "1500"}},
	{"sync-terminate-idle", []string{"-nodes", "40", "-channels", "uniform", "-terminate-idle", "200"}},
	{"sync-start-window", []string{"-nodes", "40", "-channels", "uniform", "-start-window", "60", "-alg", "sync-uniform"}},
	{"async-static", []string{"-nodes", "24", "-alg", "async", "-drift", "0.1", "-spread", "10", "-max-frames", "300"}},
	{"async-loss", []string{"-nodes", "24", "-alg", "async", "-drift", "0.1", "-loss", "0.2", "-max-frames", "300"}},
	{"async-churn", []string{"-nodes", "24", "-alg", "async", "-epoch-len", "40", "-churn-join", "0.3", "-churn-leave", "0.2", "-max-frames", "300"}},
	{"async-terminate-idle", []string{"-nodes", "24", "-alg", "async", "-drift", "0.1", "-terminate-idle", "30", "-max-frames", "300"}},
}

// TestGoldenDigests compares every scenario's digests with the committed
// ones. It runs on amd64 and 386 only: the digests cover float formatting
// of engine-computed values, and Go may fuse multiply-adds into FMA
// instructions on other architectures (arm64, ppc64, s390x), which can
// change the last bits of a result and with them the digest. 386 does not
// fuse multiply-adds and does its float64 arithmetic in SSE2 like amd64,
// so it reproduces the amd64 digests.
func TestGoldenDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		t.Skipf("golden digests are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	want, err := readGolden(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	moved := false
	for _, sc := range goldenScenarios {
		jsonSum, eventsSum := goldenDigests(t, sc.args)
		for _, d := range [][2]string{{"json", jsonSum}, {"events", eventsSum}} {
			key := sc.name + " " + d[0]
			got = append(got, key+" "+d[1])
			if want[key] != d[1] {
				moved = true
				t.Errorf("%s: digest %s, golden %q", key, d[1], want[key])
			}
		}
	}
	if len(want) != 2*len(goldenScenarios) {
		moved = true
		t.Errorf("golden file has %d digests, scenarios produce %d", len(want), 2*len(goldenScenarios))
	}
	if moved {
		if err := os.WriteFile(goldenFile+".got", []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s.got; `make golden-update` installs it", goldenFile)
	}
}

// goldenDigests runs ndsim twice — unobserved with -json, then with -json
// and -events — and returns the SHA-256 of the report and of the event log.
func goldenDigests(t *testing.T, args []string) (jsonSum, eventsSum string) {
	t.Helper()
	var bare strings.Builder
	if err := run(append(append([]string{}, args...), "-json"), &bare); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	path := filepath.Join(t.TempDir(), "events.ndjson")
	var logged strings.Builder
	if err := run(append(append([]string{}, args...), "-json", "-events", path), &logged); err != nil {
		t.Fatalf("%v -events: %v", args, err)
	}
	if bare.String() != logged.String() {
		t.Errorf("%v: -events changed the report", args)
	}
	events, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return sha256Hex([]byte(bare.String())), sha256Hex(events)
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// readGolden parses the digest file into "<scenario> <kind>" → digest.
func readGolden(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 3 {
			return nil, fmt.Errorf("%s: malformed line %q", path, sc.Text())
		}
		out[fields[0]+" "+fields[1]] = fields[2]
	}
	return out, sc.Err()
}
