package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestChaosBootFailureLeavesNoReplica: when the -chaos topology's second
// replica cannot boot, loadgen fails at once and takes the first, already
// running replica down with it. The -serve-bin wrapper runs the real serve
// binary on its first launch and exits 1 on every later one.
func TestChaosBootFailureLeavesNoReplica(t *testing.T) {
	dir := t.TempDir()
	build := exec.Command("go", "build", "-o", dir, "multihonest/cmd/serve", "multihonest/cmd/loadgen")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	wrapper := filepath.Join(dir, "serve-once")
	pidFile := filepath.Join(dir, "pid")
	script := fmt.Sprintf("#!/bin/sh\nmkdir %q 2>/dev/null || exit 1\necho $$ > %q\nexec %q \"$@\"\n",
		filepath.Join(dir, "launched"), pidFile, filepath.Join(dir, "serve"))
	if err := os.WriteFile(wrapper, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}

	// Output goes to a file, not a pipe: an orphaned replica inherits
	// loadgen's stderr and would hold a pipe open, hanging the wait.
	logPath := filepath.Join(dir, "loadgen.log")
	logf, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer logf.Close()
	cmd := exec.Command(filepath.Join(dir, "loadgen"), "-chaos", "-serve-bin", wrapper, "-duration", "1s")
	cmd.Stdout, cmd.Stderr = logf, logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	guard := time.AfterFunc(time.Minute, func() { _ = cmd.Process.Kill() })
	runErr := cmd.Wait()
	guard.Stop()
	elapsed := time.Since(start)
	logs, _ := os.ReadFile(logPath)

	raw, err := os.ReadFile(pidFile)
	if err != nil {
		t.Fatalf("first replica never launched: %v\n%s", err, logs)
	}
	pid, err := strconv.Atoi(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if syscall.Kill(pid, 0) == nil {
		_ = syscall.Kill(pid, syscall.SIGKILL)
		t.Errorf("replica pid %d outlived loadgen\n%s", pid, logs)
	}
	if runErr == nil {
		t.Errorf("loadgen exited 0 though its second replica cannot boot\n%s", logs)
	}
	if !strings.Contains(string(logs), "replica exited before it became ready") {
		t.Errorf("loadgen did not report the replica's exit\n%s", logs)
	}
	// The readiness wait gives up when the replica exits, not after its
	// 15 s poll budget.
	if elapsed > 10*time.Second {
		t.Errorf("loadgen took %v to give up on an exited replica", elapsed)
	}
}
