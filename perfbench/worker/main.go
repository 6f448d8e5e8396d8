// Command worker is the offline workload's program under test: it reads a
// job cycle, computes the DP reference values the jobs are checked
// against, runs a fixed serial warm pass, and then answers job requests
// one line at a time.
//
// Protocol, one line per message:
//
//	stdin   first line: the job cycle as a JSON array of jobs.Job
//	stdout  "ready <JSON object: job index → DP reference bits>" after warm-up
//	stdin   "<i>"          run job i mod len(cycle) on every CPU
//	stdout  "<i> <result>" the job's canonical result text
//
// The worker exits 0 at end of input and 1 on any error.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"

	"multihonest/perfbench/jobs"
)

// warmReps is how many times the warm pass runs the cycle on one worker.
const warmReps = 5

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
}

func run() error {
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	out := bufio.NewWriter(os.Stdout)
	if !in.Scan() {
		return fmt.Errorf("no job cycle on stdin: %v", in.Err())
	}
	var cycle []jobs.Job
	if err := json.Unmarshal(in.Bytes(), &cycle); err != nil {
		return fmt.Errorf("decoding job cycle: %w", err)
	}
	if len(cycle) == 0 {
		return fmt.Errorf("empty job cycle")
	}
	refs := map[int]string{}
	for i, j := range cycle {
		v, ok, err := j.Reference()
		if err != nil {
			return fmt.Errorf("job %d reference: %w", i, err)
		}
		if ok {
			refs[i] = strconv.FormatUint(math.Float64bits(v), 16)
		}
	}
	for range warmReps {
		for i, j := range cycle {
			if _, err := j.Run(1); err != nil {
				return fmt.Errorf("warm job %d: %w", i, err)
			}
		}
	}
	b, err := json.Marshal(refs)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "ready %s\n", b)
	if err := out.Flush(); err != nil {
		return err
	}
	workers := runtime.NumCPU()
	for in.Scan() {
		line := strings.TrimSpace(in.Text())
		i, err := strconv.Atoi(line)
		if err != nil || i < 0 {
			return fmt.Errorf("bad job request %q", line)
		}
		r, err := cycle[i%len(cycle)].Run(workers)
		if err != nil {
			return fmt.Errorf("job %d: %w", i, err)
		}
		fmt.Fprintf(out, "%d %s\n", i, r.Text)
		if err := out.Flush(); err != nil {
			return err
		}
	}
	return in.Err()
}
