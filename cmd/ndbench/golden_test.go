package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
)

// suiteGoldenFile holds one "seed-<n> <sha256>" line per full-suite digest;
// `make golden-update` rewrites it from suiteGoldenFile+".got", which the
// test writes whenever a digest moves.
const suiteGoldenFile = "testdata/full_suite.sha256"

// suiteGoldenSeeds are the seeds whose full `-all -markdown` output is
// pinned: the seeds EXPERIMENTS.md's tables and the byte-identity checks of
// engine refactors have always used.
var suiteGoldenSeeds = []string{"1", "7"}

// TestFullSuiteDigests pins the full experiment suite (every experiment at
// its default trial count, as `make experiments` runs it) by the SHA-256 of
// its markdown output at each golden seed. Where TestQuickSuiteGolden keeps
// readable tables of the shrunken workloads, this covers the real ones: the
// long asynchronous horizons, the large networks and every harness path. It
// runs on amd64 only: the tables print engine-computed floats, and Go may
// fuse multiply-adds into FMA instructions on other architectures (arm64,
// ppc64, s390x), which can change the last bits of a result and with them
// the digest.
func TestFullSuiteDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("full-suite digests are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	want, err := readSuiteGolden(suiteGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	moved := len(want) != len(suiteGoldenSeeds)
	if moved {
		t.Errorf("golden file has %d digests, want %d", len(want), len(suiteGoldenSeeds))
	}
	for _, seed := range suiteGoldenSeeds {
		var sb strings.Builder
		if err := run([]string{"-all", "-markdown", "-seed", seed}, &sb); err != nil {
			t.Fatalf("seed %s: %v", seed, err)
		}
		sum := sha256.Sum256([]byte(sb.String()))
		key, digest := "seed-"+seed, hex.EncodeToString(sum[:])
		got = append(got, key+" "+digest)
		if want[key] != digest {
			moved = true
			t.Errorf("%s: digest %s, golden %q", key, digest, want[key])
		}
	}
	if moved {
		if err := os.WriteFile(suiteGoldenFile+".got", []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s.got; `make golden-update` installs it", suiteGoldenFile)
	}
}

// readSuiteGolden parses the digest file into "seed-<n>" → digest.
func readSuiteGolden(path string) (map[string]string, error) {
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
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s: malformed line %q", path, sc.Text())
		}
		out[fields[0]] = fields[1]
	}
	return out, sc.Err()
}
