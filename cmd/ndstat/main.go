// Command ndstat compares two benchmark snapshots and prints a
// benchstat-style delta table for ns/op, B/op and allocs/op. Inputs can be
// ndperf JSON snapshots (BENCH_3.json and friends) or raw `go test -bench`
// output; the format is auto-detected per file, so a committed snapshot can
// be compared directly against a fresh bench run.
//
// Usage:
//
//	ndstat old.json new.json                 # delta table only
//	ndstat -gate -threshold 10 old new      # also exit 1 on >10% regression
//
// With -gate, a regression is a matched benchmark whose ns/op or allocs/op
// grew by more than -threshold percent; `make bench-gate` and CI run this
// against the committed BENCH_3.json so hot-path slowdowns fail the build
// instead of landing silently.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ndstat:", err)
		os.Exit(1)
	}
}

// row is one benchmark's measurements in a snapshot.
type row struct {
	NsPerOp     float64
	BytesPerOp  float64
	AllocsPerOp float64
}

// jsonSnapshot mirrors the ndperf BENCH_*.json schema (extra fields are
// ignored, so richer snapshots still parse).
type jsonSnapshot struct {
	Benchmarks []struct {
		Name        string  `json:"name"`
		NsPerOp     float64 `json:"ns_per_op"`
		BytesPerOp  float64 `json:"bytes_per_op"`
		AllocsPerOp float64 `json:"allocs_per_op"`
	} `json:"benchmarks"`
}

// snapshot is an ordered set of benchmark rows keyed by normalized name.
type snapshot struct {
	order []string
	rows  map[string]row
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ndstat", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		gate      = fs.Bool("gate", false, "exit nonzero if any benchmark regressed more than -threshold percent")
		threshold = fs.Float64("threshold", 10, "regression threshold in percent (ns/op and allocs/op), used with -gate")
	)
	fs.Usage = func() {
		fmt.Fprintln(out, "usage: ndstat [-gate] [-threshold pct] old new")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return fmt.Errorf("need exactly two snapshot files, got %d", fs.NArg())
	}
	old, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	cur, err := load(fs.Arg(1))
	if err != nil {
		return err
	}

	matched, onlyOld, onlyNew := match(old, cur)
	if len(matched) == 0 {
		return fmt.Errorf("no benchmarks in common between %s and %s", fs.Arg(0), fs.Arg(1))
	}
	printTables(out, old, cur, matched)
	if len(onlyOld) > 0 {
		fmt.Fprintf(out, "only in %s: %s\n", fs.Arg(0), strings.Join(onlyOld, ", "))
	}
	if len(onlyNew) > 0 {
		fmt.Fprintf(out, "only in %s: %s\n", fs.Arg(1), strings.Join(onlyNew, ", "))
	}

	if *gate {
		var regressed []string
		for _, name := range matched {
			o, n := old.rows[name], cur.rows[name]
			if d := pctDelta(o.NsPerOp, n.NsPerOp); d > *threshold {
				regressed = append(regressed, fmt.Sprintf("%s ns/op %s", name, fmtDelta(d)))
			}
			if d := pctDelta(o.AllocsPerOp, n.AllocsPerOp); d > *threshold {
				regressed = append(regressed, fmt.Sprintf("%s allocs/op %s", name, fmtDelta(d)))
			}
		}
		if len(regressed) > 0 {
			fmt.Fprintf(out, "\nGATE FAILED (threshold %+.1f%%):\n", *threshold)
			for _, r := range regressed {
				fmt.Fprintln(out, " ", r)
			}
			return fmt.Errorf("gate: %d regression(s) beyond %.1f%%", len(regressed), *threshold)
		}
		fmt.Fprintf(out, "\ngate ok: no regression beyond %+.1f%%\n", *threshold)
	}
	return nil
}

// load reads a snapshot file, auto-detecting the format: a leading '{'
// means an ndperf JSON snapshot, anything else is parsed as raw
// `go test -bench` output.
func load(path string) (*snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if trimmed := strings.TrimSpace(string(data)); strings.HasPrefix(trimmed, "{") {
		return parseJSON(path, data)
	}
	return parseBench(path, data)
}

func parseJSON(path string, data []byte) (*snapshot, error) {
	var doc jsonSnapshot
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks in snapshot", path)
	}
	s := &snapshot{rows: make(map[string]row)}
	for _, b := range doc.Benchmarks {
		s.add(normalize(b.Name), row{b.NsPerOp, b.BytesPerOp, b.AllocsPerOp})
	}
	return s, nil
}

// benchLine matches a `go test -bench` result line: name, iteration count,
// then value/unit pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.*)$`)

// gomaxprocsSuffix is the -N procs suffix go test appends to benchmark
// names; stripped so raw output matches snapshot names across machines.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

func parseBench(path string, data []byte) (*snapshot, error) {
	s := &snapshot{rows: make(map[string]row)}
	counts := make(map[string]int)
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		name := normalize(m[1])
		var r row
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad value %q for %s", path, fields[i], name)
			}
			switch fields[i+1] {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
			}
		}
		// Average repeated runs of the same benchmark (-count>1).
		if prev, ok := s.rows[name]; ok {
			c := float64(counts[name])
			r = row{
				NsPerOp:     (float64(prev.NsPerOp*c) + r.NsPerOp) / (c + 1),
				BytesPerOp:  (float64(prev.BytesPerOp*c) + r.BytesPerOp) / (c + 1),
				AllocsPerOp: (float64(prev.AllocsPerOp*c) + r.AllocsPerOp) / (c + 1),
			}
		}
		s.add(name, r)
		counts[name]++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.order) == 0 {
		return nil, fmt.Errorf("%s: no benchmark result lines found", path)
	}
	return s, nil
}

// normalize strips the Benchmark prefix and -GOMAXPROCS suffix so raw
// `go test -bench` names line up with ndperf snapshot names.
func normalize(name string) string {
	name = strings.TrimPrefix(name, "Benchmark")
	return gomaxprocsSuffix.ReplaceAllString(name, "")
}

func (s *snapshot) add(name string, r row) {
	if _, ok := s.rows[name]; !ok {
		s.order = append(s.order, name)
	}
	s.rows[name] = r
}

// match returns names present in both snapshots (in old's order) and the
// leftovers on each side (sorted).
func match(old, cur *snapshot) (matched, onlyOld, onlyNew []string) {
	for _, name := range old.order {
		if _, ok := cur.rows[name]; ok {
			matched = append(matched, name)
		} else {
			onlyOld = append(onlyOld, name)
		}
	}
	for _, name := range cur.order {
		if _, ok := old.rows[name]; !ok {
			onlyNew = append(onlyNew, name)
		}
	}
	sort.Strings(onlyOld)
	sort.Strings(onlyNew)
	return matched, onlyOld, onlyNew
}

// pctDelta returns the percent change from old to new; an appearance from
// zero counts as +100% so gating still trips on it.
func pctDelta(old, new float64) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		return 100
	}
	return (new - old) / old * 100
}

func fmtDelta(d float64) string {
	if d == 0 {
		return "~"
	}
	return fmt.Sprintf("%+.2f%%", d)
}

// printTables writes one benchstat-style table per metric.
func printTables(out io.Writer, old, cur *snapshot, matched []string) {
	metrics := []struct {
		title string
		get   func(row) float64
	}{
		{"ns/op", func(r row) float64 { return r.NsPerOp }},
		{"B/op", func(r row) float64 { return r.BytesPerOp }},
		{"allocs/op", func(r row) float64 { return r.AllocsPerOp }},
	}
	nameW := len("name")
	for _, n := range matched {
		if len(n) > nameW {
			nameW = len(n)
		}
	}
	for i, m := range metrics {
		if i > 0 {
			fmt.Fprintln(out)
		}
		fmt.Fprintf(out, "%s\n%-*s  %14s  %14s  %9s\n", m.title, nameW, "name", "old", "new", "delta")
		for _, n := range matched {
			o, c := m.get(old.rows[n]), m.get(cur.rows[n])
			fmt.Fprintf(out, "%-*s  %14s  %14s  %9s\n", nameW, n, fmtVal(o), fmtVal(c), fmtDelta(pctDelta(o, c)))
		}
	}
}

// fmtVal prints integral values without a fraction, everything else with
// two digits.
func fmtVal(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'f', 2, 64)
}
