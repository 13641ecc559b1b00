package main

import (
	"bytes"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// gridArgs is the harness grid: small enough to finish in seconds,
// scalar-executed (-replica-batch 1) so points commit one at a time
// and the kill window between commits is wide.
func gridArgs(extra ...string) []string {
	args := []string{
		"-algos", "fetchinc,scu", "-scheds", "uniform", "-n", "2,3",
		"-seeds", "8", "-steps", "400000",
		"-replica-batch", "1", "-flush-every", "-1", "-progress=false",
	}
	return append(args, extra...)
}

const gridPoints = 2 * 2 * 8

// countRecords reports how many completed points the checkpoint holds:
// newline-terminated lines past the header. A torn tail does not count.
func countRecords(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	n := bytes.Count(data, []byte("\n"))
	if n == 0 {
		return 0
	}
	return n - 1 // header line
}

// TestKillAndResumeIsByteIdentical SIGKILLs pwfsweep mid-run at
// randomized points, resumes it from the checkpoint until it
// completes, and asserts the final output is byte-identical to an
// uninterrupted run of the same grid.
func TestKillAndResumeIsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and repeatedly kills a subprocess")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "pwfsweep")
	build := exec.Command(goBin, "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	refOut := filepath.Join(dir, "ref.ndjson")
	ref := exec.Command(bin, gridArgs("-out", refOut)...)
	if out, err := ref.CombinedOutput(); err != nil {
		t.Fatalf("reference run: %v\n%s", err, out)
	}

	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	t.Logf("kill-schedule rng seed %d", seed)

	ckpt := filepath.Join(dir, "grid.ckpt")
	killedOut := filepath.Join(dir, "killed.ndjson")
	kills := 0
	const maxAttempts = 12
	for attempt := 0; ; attempt++ {
		if attempt == maxAttempts {
			t.Fatalf("no clean completion after %d attempts (%d kills)", maxAttempts, kills)
		}
		args := gridArgs("-out", killedOut, "-checkpoint", ckpt)
		if attempt > 0 {
			args = append(args, "-resume")
		}
		cmd := exec.Command(bin, args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		exited := make(chan error, 1)
		go func() { exited <- cmd.Wait() }()

		// Kill once the checkpoint grows past a randomized threshold
		// beyond what previous attempts already banked; the last two
		// attempts run to completion so the test always terminates.
		// A kill can land after the last record is banked but before
		// the process exits; then the checkpoint is full and the
		// resumed run goes to completion.
		already := countRecords(ckpt)
		target := gridPoints
		if already < gridPoints {
			target = already + 1 + rng.Intn(gridPoints-already)
		}
		killed := false
		if attempt < maxAttempts-2 && target < gridPoints {
			deadline := time.After(2 * time.Minute)
		poll:
			for {
				select {
				case err := <-exited:
					if err != nil {
						t.Fatalf("attempt %d exited early: %v\n%s", attempt, err, stderr.String())
					}
					break poll // finished before the kill threshold
				case <-deadline:
					t.Fatalf("attempt %d: checkpoint stuck at %d records waiting for %d",
						attempt, countRecords(ckpt), target)
				default:
					if countRecords(ckpt) >= target {
						if err := cmd.Process.Kill(); err != nil {
							t.Fatal(err)
						}
						<-exited
						killed = true
						kills++
						break poll
					}
					time.Sleep(2 * time.Millisecond)
				}
			}
		} else if err := <-exited; err != nil {
			t.Fatalf("final attempt: %v\n%s", err, stderr.String())
		}
		if killed {
			continue
		}

		// Clean exit: the resumed output must match the reference.
		refBytes, err := os.ReadFile(refOut)
		if err != nil {
			t.Fatal(err)
		}
		gotBytes, err := os.ReadFile(killedOut)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(refBytes, gotBytes) {
			t.Fatalf("resumed output differs from uninterrupted run after %d kills", kills)
		}
		if kills == 0 {
			t.Fatal("harness never killed the subprocess; grid too small for the kill window")
		}
		if n := countRecords(ckpt); n != gridPoints {
			t.Errorf("checkpoint holds %d records, want %d", n, gridPoints)
		}
		t.Logf("byte-identical after %d SIGKILLs across %d attempts", kills, attempt+1)
		return
	}
}

// TestKilledCheckpointRejectsOtherGrid: a checkpoint left behind by a
// killed run refuses to resume under a different grid, end to end
// through the binary.
func TestKilledCheckpointRejectsOtherGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a subprocess")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "pwfsweep")
	if out, err := exec.Command(goBin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	ckpt := filepath.Join(dir, "grid.ckpt")
	first := exec.Command(bin, gridArgs("-checkpoint", ckpt, "-out", filepath.Join(dir, "a.ndjson"))...)
	if err := first.Start(); err != nil {
		t.Fatal(err)
	}
	for countRecords(ckpt) < 1 {
		time.Sleep(2 * time.Millisecond)
	}
	first.Process.Kill()
	first.Wait()

	other := exec.Command(bin, gridArgs("-checkpoint", ckpt, "-resume", "-seed", "99")...)
	var stderr bytes.Buffer
	other.Stderr = &stderr
	err = other.Run()
	if err == nil {
		t.Fatal("binary resumed a checkpoint from a different grid")
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Errorf("want exit code 1, got %v", err)
	}
	if !bytes.Contains(stderr.Bytes(), []byte("grid mismatch")) {
		t.Errorf("stderr does not name the grid mismatch:\n%s", stderr.String())
	}
}
