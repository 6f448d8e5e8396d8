package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"multihonest/perfbench/jobs"
)

// worker is a running offline worker child, spoken to over its standard
// input and output; its standard error goes to a log file.
type worker struct {
	*child
	in   *os.File
	out  *bufio.Reader
	refs map[int]uint64 // job index → DP reference bits the worker computed
}

// startWorker execs the offline worker, hands it the job cycle and waits
// for its "ready" line, which it prints after its DP references and warm
// pass.
func startWorker(env *env, cycle []jobs.Job) (*worker, error) {
	log, err := os.Create(filepath.Join(env.work, "worker.log"))
	if err != nil {
		return nil, err
	}
	// Plain pipes rather than cmd.StdinPipe: exec.Cmd.Wait would close
	// those while the benchmark still reads.
	inR, inW, err := os.Pipe()
	if err != nil {
		log.Close()
		return nil, err
	}
	outR, outW, err := os.Pipe()
	if err != nil {
		log.Close()
		inR.Close()
		inW.Close()
		return nil, err
	}
	cmd := exec.Command(env.workerBin)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = inR, outW, log
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	c, err := launch(cmd, log.Name(), log)
	inR.Close()
	outW.Close()
	if err != nil {
		inW.Close()
		outR.Close()
		return nil, err
	}
	w := &worker{child: c, in: inW, out: bufio.NewReaderSize(outR, 64<<10)}
	fail := func(err error) (*worker, error) {
		w.stop()
		return nil, err
	}
	b, err := json.Marshal(cycle)
	if err != nil {
		return fail(err)
	}
	if _, err := fmt.Fprintf(inW, "%s\n", b); err != nil {
		return fail(fmt.Errorf("sending job cycle: %w", err))
	}
	line, err := w.out.ReadString('\n')
	ready, ok := strings.CutPrefix(strings.TrimSpace(line), "ready ")
	if err != nil || !ok {
		return fail(fmt.Errorf("worker not ready (%q, %v); log:\n%s", line, err, readTail(log.Name())))
	}
	var refs map[int]string
	if err := json.Unmarshal([]byte(ready), &refs); err != nil {
		return fail(fmt.Errorf("worker references: %w", err))
	}
	w.refs = make(map[int]uint64, len(refs))
	for i, s := range refs {
		if w.refs[i], err = strconv.ParseUint(s, 16, 64); err != nil {
			return fail(fmt.Errorf("worker reference %d: %w", i, err))
		}
	}
	return w, nil
}

func readTail(path string) string {
	b, _ := os.ReadFile(path) // diagnostics only
	return tail(b)
}

// stop closes the worker's input, which ends it, then stops and reaps it.
func (w *worker) stop() {
	w.in.Close()
	select {
	case <-w.done:
	case <-time.After(time.Second):
	}
	w.child.stop()
}

// driveWorker runs the measured phase: a closed loop sending op i (job
// i mod len(cycle)) once op i−1 has answered. It returns the phase and
// the answer text per cycle index, which every repeat must match.
func driveWorker(w *worker, cycle []jobs.Job, nOps int, tr *tracer) (*phase, []string, error) {
	out := &phase{lat: make([]time.Duration, nOps)}
	texts := make([]string, len(cycle))
	var ioErr error
	loop := func(lo, hi int) {
		for i := lo; i < hi && ioErr == nil; i++ {
			op := tr.begin("op", -1, int64(i))
			job := tr.begin("job."+cycle[i%len(cycle)].Kind, op, int64(i))
			t0 := time.Now()
			var line string
			_, err := fmt.Fprintf(w.in, "%d\n", i)
			if err == nil {
				line, err = w.out.ReadString('\n')
			}
			out.lat[i] = time.Since(t0)
			tr.end(job)
			if err != nil {
				ioErr = fmt.Errorf("op %d: worker gave no answer (%v); log:\n%s", i, err, readTail(w.logPath))
				return
			}
			chk := tr.begin("check", op, int64(i))
			id, text, _ := strings.Cut(strings.TrimSpace(line), " ")
			var cerr error
			switch c := i % len(cycle); {
			case id != strconv.Itoa(i):
				cerr = fmt.Errorf("op %d answered as %q", i, id)
			case texts[c] == "":
				texts[c] = text
			case texts[c] != text:
				cerr = fmt.Errorf("op %d: job %d answered %q, earlier %q", i, c, text, texts[c])
			}
			tr.end(chk)
			tr.end(op)
			if cerr != nil {
				out.failed++
				if out.err == nil {
					out.err = cerr
				}
			}
		}
	}
	if err := out.measure(w.pid(), loop); err != nil {
		return nil, nil, err
	}
	if ioErr != nil {
		return nil, nil, ioErr
	}
	var err error
	if out.rss, err = peakRSS(w.pid()); err != nil {
		return nil, nil, err
	}
	return out, texts, nil
}

// verifyOffline reruns every job of the cycle in this process on one
// worker and checks the worker's answers bitwise (the runner and Table-1
// worker-invariance contract), the worker's DP references bitwise against
// ones computed here, and each estimate against its DP reference.
func verifyOffline(cycle []jobs.Job, texts []string, refs map[int]uint64) error {
	for i, j := range cycle {
		r, err := j.Run(1)
		if err != nil {
			return fmt.Errorf("rerun of job %d: %w", i, err)
		}
		if texts[i] != "" && texts[i] != r.Text {
			return fmt.Errorf("job %d (%s): worker answered %q, one-worker rerun %q", i, j.Kind, texts[i], r.Text)
		}
		ref, ok, err := j.Reference()
		if err != nil {
			return fmt.Errorf("job %d reference: %w", i, err)
		}
		if got, has := refs[i]; ok != has || (ok && got != math.Float64bits(ref)) {
			return fmt.Errorf("job %d: worker DP reference %x, here %x", i, got, math.Float64bits(ref))
		}
		if ok {
			if err := j.Plausible(r, ref); err != nil {
				return fmt.Errorf("job %d: %w", i, err)
			}
		}
	}
	return nil
}
