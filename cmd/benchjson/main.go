// Command benchjson converts `go test -bench -benchmem` output into a
// machine-readable JSON summary, optionally computing speedups against a
// committed baseline. It backs the CI bench job, which publishes
// BENCH_pr10.json per commit to track the performance trajectory.
//
// Usage:
//
//	go test -run NONE -bench . -benchmem . | benchjson -baseline bench/baseline_pr8.json -o BENCH_pr10.json
//
// The baseline file maps benchmark name → ns/op of the committed reference
// (see bench/baseline_pr8.json: the Table 1 ladder, the oracle serve
// path and the Monte-Carlo core). Keys starting with "_" are comments — free-form
// strings documenting why the baseline holds the values it does (e.g. a
// waived regression) — and are ignored. Speedup is baseline ns/op divided
// by current ns/op for every benchmark present in both. Custom throughput
// units (qps from the oracle serve benchmarks, samples/s from the MC
// engine) are carried through as-is.
//
// -regress turns the tool into a CI perf gate: each named benchmark must
// be present in both the input and the baseline, and its ns/op must not
// exceed baseline × -maxregress (default 1.2), else the process exits
// non-zero.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name            string   `json:"name"`
	Iterations      int      `json:"iterations"`
	NsPerOp         float64  `json:"ns_per_op"`
	BytesPerOp      *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp     *float64 `json:"allocs_per_op,omitempty"`
	SamplesPerSec   *float64 `json:"samples_per_sec,omitempty"`
	QPS             *float64 `json:"qps,omitempty"`
	BaselineNsPerOp *float64 `json:"baseline_ns_per_op,omitempty"`
	Speedup         *float64 `json:"speedup,omitempty"`
}

// Summary is the emitted document.
type Summary struct {
	CPU        string   `json:"cpu,omitempty"`
	GoOS       string   `json:"goos,omitempty"`
	GoArch     string   `json:"goarch,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// benchLine matches e.g.
//
//	BenchmarkMCStream/E1-NoUHCatalan-8   10   29290539 ns/op   136564 samples/s   3528 B/op   19 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(.*)$`)

// metric matches trailing "<value> <unit>" pairs after ns/op.
var metric = regexp.MustCompile(`([\d.e+-]+) (\S+)`)

func parse(lines []string) Summary {
	var s Summary
	for _, line := range lines {
		switch {
		case strings.HasPrefix(line, "cpu:"):
			s.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "goos:"):
			s.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			s.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, _ := strconv.Atoi(m[2])
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		r := Result{Name: m[1], Iterations: iters, NsPerOp: ns}
		for _, mm := range metric.FindAllStringSubmatch(m[4], -1) {
			v, err := strconv.ParseFloat(mm[1], 64)
			if err != nil {
				continue
			}
			switch mm[2] {
			case "B/op":
				r.BytesPerOp = &v
			case "allocs/op":
				r.AllocsPerOp = &v
			case "samples/s":
				r.SamplesPerSec = &v
			case "qps":
				r.QPS = &v
			}
		}
		s.Benchmarks = append(s.Benchmarks, r)
	}
	return s
}

func main() {
	log.SetFlags(0)
	baselinePath := flag.String("baseline", "", "JSON file mapping benchmark name → baseline ns/op")
	out := flag.String("o", "", "output path (default stdout)")
	regress := flag.String("regress", "", "comma-separated benchmark names that must not regress vs the baseline")
	maxRegress := flag.Float64("maxregress", 1.2, "fail when a -regress benchmark's ns/op exceeds baseline × this factor")
	flag.Parse()

	baseline := map[string]float64{}
	if *baselinePath != "" {
		data, err := os.ReadFile(*baselinePath)
		if err != nil {
			log.Fatal(err)
		}
		raw := map[string]json.RawMessage{}
		if err := json.Unmarshal(data, &raw); err != nil {
			log.Fatalf("parsing baseline %s: %v", *baselinePath, err)
		}
		for name, v := range raw {
			if strings.HasPrefix(name, "_") {
				continue // comment key
			}
			var ns float64
			if err := json.Unmarshal(v, &ns); err != nil {
				log.Fatalf("parsing baseline %s: entry %q is not a number: %v", *baselinePath, name, err)
			}
			baseline[name] = ns
		}
	}

	var lines []string
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}

	s := parse(lines)
	if len(s.Benchmarks) == 0 {
		log.Fatal("benchjson: no benchmark lines found on stdin")
	}
	for i := range s.Benchmarks {
		if base, ok := baseline[s.Benchmarks[i].Name]; ok && s.Benchmarks[i].NsPerOp > 0 {
			b := base
			sp := base / s.Benchmarks[i].NsPerOp
			s.Benchmarks[i].BaselineNsPerOp = &b
			s.Benchmarks[i].Speedup = &sp
		}
	}

	if *regress != "" {
		byName := map[string]Result{}
		for _, r := range s.Benchmarks {
			byName[r.Name] = r
		}
		for _, name := range strings.Split(*regress, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			base, ok := baseline[name]
			if !ok {
				log.Fatalf("benchjson: -regress benchmark %q has no baseline entry in %s", name, *baselinePath)
			}
			r, ok := byName[name]
			if !ok {
				log.Fatalf("benchjson: -regress benchmark %q not found in input", name)
			}
			if limit := base * *maxRegress; r.NsPerOp > limit {
				log.Fatalf("benchjson: %s regressed: %.0f ns/op > baseline %.0f × %.2f = %.0f",
					name, r.NsPerOp, base, *maxRegress, limit)
			}
			fmt.Fprintf(os.Stderr, "benchjson: %s ok: %.0f ns/op ≤ baseline %.0f × %.2f\n",
				name, r.NsPerOp, base, *maxRegress)
		}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		log.Fatal(err)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(s.Benchmarks), *out)
	}
}
