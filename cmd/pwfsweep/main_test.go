package main

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pwf/internal/api"
)

func TestBuildJobsExpandsAllAxes(t *testing.T) {
	jobs, err := buildJobs("scu,fetchinc", "uniform,sticky:0.5", "2,4", 1000, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2 * 2 * 3; len(jobs) != want {
		t.Fatalf("got %d jobs, want %d", len(jobs), want)
	}
	// Labels are unique and carry every axis.
	seen := map[string]bool{}
	for _, j := range jobs {
		if seen[j.Label] {
			t.Errorf("duplicate label %q", j.Label)
		}
		seen[j.Label] = true
		if j.Steps != 1000 || j.WarmupFraction != 0.1 {
			t.Errorf("job %q: steps %d warmup %v", j.Label, j.Steps, j.WarmupFraction)
		}
	}
	if !seen["scu/sticky:0.5/n4/r2"] {
		t.Error("expected label scu/sticky:0.5/n4/r2 missing")
	}
}

func TestBuildJobsRejectsBadAxes(t *testing.T) {
	cases := [][3]string{
		{"nosuch", "uniform", "2"},
		{"scu", "sticky", "2"}, // sticky needs a rho
		{"scu", "uniform", "zero"},
		{"scu", "uniform", "0"},
	}
	for _, c := range cases {
		if _, err := buildJobs(c[0], c[1], c[2], 1000, 0.1, 1); err == nil {
			t.Errorf("buildJobs(%q, %q, %q) accepted bad input", c[0], c[1], c[2])
		}
	}
}

// -scheds speaks the shared list grammar: the commas inside a
// scheduler's own arguments (explicit tickets, phase weights) stay with
// it instead of splitting it into bogus entries.
func TestBuildJobsSchedListKeepsArgumentCommas(t *testing.T) {
	for _, tc := range []struct {
		scheds string
		want   []string
	}{
		{"lottery:1,2,uniform", []string{"lottery:1,2", "uniform"}},
		{"phased:3,1@50/1,3@50", []string{"phased:3,1@50/1,3@50"}},
	} {
		jobs, err := buildJobs("scu", tc.scheds, "2", 1000, 0.1, 1)
		if err != nil {
			t.Errorf("-scheds %s: %v", tc.scheds, err)
			continue
		}
		var got []string
		for _, j := range jobs {
			got = append(got, j.Sched.String())
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("-scheds %s: schedulers %q, want %q", tc.scheds, got, tc.want)
		}
		var out, errOut bytes.Buffer
		args := []string{"-algos", "scu", "-scheds", tc.scheds, "-n", "2",
			"-seeds", "1", "-steps", "2000", "-progress=false"}
		if err := run(args, &out, &errOut); err != nil {
			t.Errorf("run -scheds %s: %v", tc.scheds, err)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	cases := [][]string{
		{"-seeds", "0"},
		{"-workers", "-1"},
		{"-resume"}, // without -checkpoint
		{"-algos", "nosuch"},
	}
	for _, args := range cases {
		if err := run(args, &out, &errOut); err == nil {
			t.Errorf("run(%v) accepted bad flags", args)
		}
	}
}

func TestRunEmitsCanonicalResultsInInputOrder(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"-algos", "fetchinc", "-scheds", "uniform", "-n", "2,3",
		"-seeds", "2", "-steps", "20000", "-progress=false"}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	results, err := api.ReadResults(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	for i, r := range results {
		if r.Index != i {
			t.Errorf("result %d has index %d; output must be input order", i, r.Index)
		}
	}
}

// An existing checkpoint is refused without -resume, and a resumed
// checkpoint whose grid hash mismatches the requested grid is
// rejected loudly instead of mixing results.
func TestRunCheckpointResumePolicy(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "grid.ckpt")
	base := []string{"-algos", "fetchinc", "-scheds", "uniform", "-n", "2",
		"-seeds", "2", "-steps", "10000", "-progress=false", "-checkpoint", ckpt}

	var out, errOut bytes.Buffer
	if err := run(base, &out, &errOut); err != nil {
		t.Fatal(err)
	}

	// Same grid again, no -resume: refused.
	err := run(base, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Errorf("rerun without -resume: got %v, want an error naming -resume", err)
	}

	// Same grid with -resume: fine, everything restored.
	out.Reset()
	if err := run(append(base, "-resume"), &out, &errOut); err != nil {
		t.Fatal(err)
	}

	// Different grid (other master seed) with -resume: loud mismatch.
	err = run(append(base, "-resume", "-seed", "99"), &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "grid mismatch") {
		t.Errorf("mismatched resume: got %v, want a grid-mismatch error", err)
	}
}

// Resuming a completed checkpoint recomputes nothing and reproduces
// the original bytes.
func TestRunResumeReproducesBytes(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-algos", "fetchinc,scu", "-scheds", "uniform", "-n", "2,3",
		"-seeds", "2", "-steps", "20000", "-progress=false"}

	var plain, errOut bytes.Buffer
	if err := run(args, &plain, &errOut); err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(dir, "grid.ckpt")
	var first bytes.Buffer
	if err := run(append(args, "-checkpoint", ckpt), &first, &errOut); err != nil {
		t.Fatal(err)
	}
	var resumed bytes.Buffer
	if err := run(append(args, "-checkpoint", ckpt, "-resume"), &resumed, &errOut); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), first.Bytes()) {
		t.Error("checkpointed run differs from plain run")
	}
	if !bytes.Equal(plain.Bytes(), resumed.Bytes()) {
		t.Error("fully restored run differs from plain run")
	}
	if !strings.Contains(errOut.String(), "resuming") {
		t.Error("resume did not announce the restored count")
	}
}
