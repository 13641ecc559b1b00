package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pwf/internal/obs"
)

func TestRunSchedule(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-mode", "schedule", "-workers", "2", "-ops", "2000"}, &buf, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 3", "Figure 4", "worker  0"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRunScheduleTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sched.ndjson")
	var buf bytes.Buffer
	args := []string{"-mode", "schedule", "-workers", "2", "-ops", "1000", "-trace", path}
	if err := run(args, &buf, &buf); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	if want := recordedSteps(t, buf.String(), 2*1000); len(events) != want {
		t.Fatalf("got %d events, want %d", len(events), want)
	}
	for i, e := range events {
		if e.Kind != obs.KindSched {
			t.Fatalf("event %d: kind %v, want sched", i, e.Kind)
		}
		if e.Step != uint64(i)+1 {
			t.Fatalf("event %d: step %d, want %d", i, e.Step, i+1)
		}
		if e.PID < 0 || e.PID > 1 {
			t.Fatalf("event %d: pid %d out of range", i, e.PID)
		}
	}
}

// recordedSteps returns the schedule length that run reports in its
// "recorded N steps" line, checking 1 <= N <= max: RecordSchedule
// trims the schedule to the window in which every worker is active, so
// N may fall short of workers × ops.
func recordedSteps(t *testing.T, out string, max int) int {
	t.Helper()
	_, line, ok := strings.Cut(out, "recorded ")
	if !ok {
		t.Fatalf("no recorded-steps line in:\n%s", out)
	}
	var n int
	if _, err := fmt.Sscanf(line, "%d steps", &n); err != nil {
		t.Fatalf("parse recorded-steps line %q: %v", line, err)
	}
	if n < 1 || n > max {
		t.Fatalf("recorded %d steps, want 1..%d", n, max)
	}
	return n
}

// TestRunScheduleTraceBinary records the hardware schedule in trace
// format v2 and checks it decodes to the same shape as the NDJSON
// path: all sched events with consecutive 1-based steps.
func TestRunScheduleTraceBinary(t *testing.T) {
	for _, comp := range []string{"none", "gzip"} {
		path := filepath.Join(t.TempDir(), "sched.pwft")
		var buf bytes.Buffer
		args := []string{"-mode", "schedule", "-workers", "2", "-ops", "1000",
			"-trace", path, "-trace-format", "bin", "-trace-compress", comp}
		if err := run(args, &buf, &buf); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		events, err := obs.ReadTrace(f)
		f.Close()
		if err != nil {
			t.Fatalf("compress=%s: decode: %v", comp, err)
		}
		if want := recordedSteps(t, buf.String(), 2*1000); len(events) != want {
			t.Fatalf("compress=%s: got %d events, want %d", comp, len(events), want)
		}
		for i, e := range events {
			if e.Kind != obs.KindSched || e.Step != uint64(i)+1 {
				t.Fatalf("compress=%s: event %d: %+v", comp, i, e)
			}
		}
	}
}

func TestRunRejectsBadTraceFormat(t *testing.T) {
	var buf bytes.Buffer
	args := []string{"-mode", "schedule", "-workers", "1", "-ops", "10",
		"-trace", filepath.Join(t.TempDir(), "x"), "-trace-format", "xml"}
	if err := run(args, &buf, &buf); err == nil {
		t.Error("unknown -trace-format accepted")
	}
}

func TestRunRateAllWorkloads(t *testing.T) {
	for _, algo := range []string{"counter", "add", "sharded", "stack", "queue"} {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			var buf bytes.Buffer
			args := []string{"-mode", "rate", "-maxworkers", "2", "-ops", "2000", "-algo", algo}
			if err := run(args, &buf, &buf); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), "Figure 5") {
				t.Errorf("missing header:\n%s", buf.String())
			}
		})
	}
}

func TestRunRateContentionFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"backoff-exp", []string{"-algo", "counter", "-backoff", "exp:16:4096"}},
		{"backoff-adaptive", []string{"-algo", "counter", "-backoff", "adaptive"}},
		{"backoff-spin", []string{"-algo", "queue", "-backoff", "spin:32"}},
		{"elim-stack", []string{"-algo", "stack", "-elim", "4", "-backoff", "exp"}},
		{"sharded", []string{"-algo", "sharded", "-shards", "4"}},
		{"seeded", []string{"-algo", "stack", "-elim", "2", "-seed", "42"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			args := append([]string{"-mode", "rate", "-maxworkers", "2", "-ops", "2000"}, tc.args...)
			if err := run(args, &buf, &buf); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), "Figure 5") {
				t.Errorf("missing header:\n%s", buf.String())
			}
		})
	}
}

func TestRunRateMetrics(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"-mode", "rate", "-maxworkers", "2", "-ops", "2000",
		"-algo", "counter", "-metrics"}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	snap := errOut.String()
	for _, want := range []string{"native_counter_ops", "native_counter_retries"} {
		if !strings.Contains(snap, want) {
			t.Errorf("metrics snapshot missing %q:\n%s", want, snap)
		}
	}
}

func TestRunProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	var buf bytes.Buffer
	args := []string{"-mode", "rate", "-maxworkers", "1", "-ops", "2000",
		"-cpuprofile", cpu, "-memprofile", mem}
	if err := run(args, &buf, &buf); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantMsg string
	}{
		{"bad mode", []string{"-mode", "nope"}, `unknown mode "nope"`},
		{"bad algo", []string{"-mode", "rate", "-algo", "nope"}, `unknown workload "nope"`},
		{"zero workers", []string{"-mode", "schedule", "-workers", "0"}, "-workers must be at least 1"},
		{"negative workers", []string{"-mode", "schedule", "-workers", "-3"}, "-workers must be at least 1"},
		{"zero maxworkers", []string{"-mode", "rate", "-maxworkers", "0"}, "-maxworkers must be at least 1"},
		{"negative maxworkers", []string{"-mode", "rate", "-maxworkers", "-1"}, "-maxworkers must be at least 1"},
		{"zero ops", []string{"-mode", "rate", "-ops", "0"}, "-ops must be at least 1"},
		{"negative ops", []string{"-mode", "schedule", "-ops", "-5"}, "-ops must be at least 1"},
		{"negative elim", []string{"-mode", "rate", "-elim", "-1"}, "-elim must be non-negative"},
		{"negative shards", []string{"-mode", "rate", "-shards", "-2"}, "-shards must be non-negative"},
		{"bad backoff strategy", []string{"-mode", "rate", "-backoff", "bogus"}, "bogus"},
		{"bad backoff param", []string{"-mode", "rate", "-backoff", "exp:x"}, "exp"},
		{"trace in rate mode", []string{"-mode", "rate", "-trace", "x.ndjson"}, "-trace applies only"},
		{"unknown flag", []string{"-badflag"}, ""},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			err := run(tc.args, &buf, &buf)
			if err == nil {
				t.Fatalf("args %v: nil error", tc.args)
			}
			if tc.wantMsg != "" && !strings.Contains(err.Error(), tc.wantMsg) {
				t.Errorf("args %v: error %q does not mention %q", tc.args, err, tc.wantMsg)
			}
		})
	}
}
