package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is a program under test running as a child process. Its standard
// error (and output, unless the caller takes it) goes to a log file, so
// the benchmark never has to drain a pipe while it measures.
type child struct {
	cmd     *exec.Cmd
	logPath string
	log     *os.File
	done    chan struct{} // closed once the process has been reaped
}

// children tracks every live child so any exit path, a signal included,
// can stop them all.
var (
	childMu  sync.Mutex
	children = map[*child]bool{}
)

// startChild execs bin with args, logging to logPath. The child is
// killed if the benchmark dies first.
func startChild(bin, logPath string, args ...string) (*child, error) {
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = log, log
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return launch(cmd, logPath, log)
}

func launch(cmd *exec.Cmd, logPath string, log *os.File) (*child, error) {
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("starting %s: %w", cmd.Path, err)
	}
	c := &child{cmd: cmd, logPath: logPath, log: log, done: make(chan struct{})}
	childMu.Lock()
	children[c] = true
	childMu.Unlock()
	go func() {
		_ = cmd.Wait() // the exit status of a child we stop is not a result
		close(c.done)
	}()
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// exited reports whether the child has already ended.
func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// stop terminates the child (SIGTERM, then SIGKILL after a grace period)
// and waits until it has been reaped.
func (c *child) stop() {
	childMu.Lock()
	live := children[c]
	delete(children, c)
	childMu.Unlock()
	if !live {
		return
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(3 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
	c.log.Close()
}

// stopAll stops every child still running.
func stopAll() {
	childMu.Lock()
	live := make([]*child, 0, len(children))
	for c := range children {
		live = append(live, c)
	}
	childMu.Unlock()
	for _, c := range live {
		c.stop()
	}
}

// waitLog polls the child's log until a line contains marker and returns
// that line.
func (c *child) waitLog(marker string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for {
		b, err := os.ReadFile(c.logPath)
		if err != nil {
			return "", err
		}
		if i := bytes.Index(b, []byte(marker)); i >= 0 {
			line := b[i:]
			if j := bytes.IndexByte(line, '\n'); j >= 0 {
				return string(line[:j]), nil
			}
		}
		if c.exited() {
			return "", fmt.Errorf("%s exited before %q; log:\n%s", c.cmd.Path, marker, tail(b))
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("%s: no %q within %v", c.cmd.Path, marker, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

func tail(b []byte) string {
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// clockTick is the unit of the CPU times in /proc/<pid>/stat (USER_HZ,
// 100 on Linux).
const clockTick = 10 * time.Millisecond

// procCPU returns the user+system CPU time the process has used so far.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields after it are fixed.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat: %v %v", pid, err1, err2)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSS returns the process's peak resident set (VmHWM) in bytes.
func peakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPU returns the benchmark process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
