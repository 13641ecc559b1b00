// Command pwfbench measures the cost of scheduler sampling and of
// end-to-end simulation, and emits the results as machine-readable
// per-subsystem JSON files (BENCH_sched.json and BENCH_sweep.json at
// the repository root) so successive PRs can diff steps/sec instead
// of re-reading prose. It times two things:
//
//   - the per-draw cost of every stochastic scheduler, fast path
//     (alias table / Fenwick tree / dense active set) against the
//     naive O(n) reference samplers, over the paper-scale process
//     counts (BENCH_sched.json); and
//   - the end-to-end simulated steps per second of a sweep job at the
//     same process counts, on the scalar path and through the
//     replica-batched core, which is what the ROADMAP's "as fast as
//     the hardware allows" goal is scored on (BENCH_sweep.json). The
//     -workloads flag selects which batchable kinds are measured; the
//     pointer-based kinds (stack, queue, rcu, unbounded, lfuniversal)
//     are capped at n <= 1024 to keep the grid affordable; and
//   - the trace pipeline: per-event encode/decode cost, bytes per
//     event, and end-to-end traced throughput of one uniform run
//     (-tracen processes, -tracesteps steps) in every trace format —
//     NDJSON, binary, binary+gzip (BENCH_trace.json). The
//     encode_overhead_vs_ndjson_traced_pct column reports each
//     format's added tracing cost (traced minus untraced wall time)
//     as a percentage of the NDJSON-traced run it replaces; the
//     binary rows are expected to stay under 10%.
//
// Files written with -outdir omit the host and timestamp metadata so
// the checked-in copies diff cleanly PR over PR; the stdout report
// keeps them. -check compares the freshly measured rows against one
// or more checked-in baselines (comma-separated) and exits non-zero
// when any sweep ns-per-step figure, trace encode cost, or trace
// compression ratio regressed beyond -tolerance, which is how CI
// catches sweep-core and trace-pipeline slowdowns.
//
// Usage:
//
//	pwfbench                                # print combined JSON to stdout
//	pwfbench -outdir .                      # write BENCH_sched.json + BENCH_sweep.json + BENCH_trace.json
//	pwfbench -outdir . -check BENCH_sweep.json,BENCH_trace.json -tolerance 0.25
//	pwfbench -n 16,256,1024,4096 -draws 200000 -steps 100000
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"pwf/internal/obs"
	"pwf/internal/rng"
	"pwf/internal/sched"
	"pwf/internal/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pwfbench:", err)
		os.Exit(1)
	}
}

// Report is the combined stdout schema; the per-subsystem files each
// carry one of the two sections. Generated and Host are omitted from
// files written with -outdir so checked-in copies diff cleanly.
type Report struct {
	// Generated is the RFC 3339 measurement time.
	Generated string `json:"generated,omitempty"`
	// Host describes the measuring machine; wall-clock numbers are
	// only comparable within one host.
	Host *Host `json:"host,omitempty"`
	// Draw holds per-draw scheduler sampling costs (BENCH_sched.json).
	Draw []DrawResult `json:"draw,omitempty"`
	// Sweep holds end-to-end simulation throughput (BENCH_sweep.json).
	Sweep []SweepResult `json:"sweep,omitempty"`
	// Trace holds trace-pipeline encode/decode throughput and size per
	// format (BENCH_trace.json).
	Trace []TraceResult `json:"trace,omitempty"`
}

// Host identifies the benchmark environment.
type Host struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// DrawResult is one (scheduler, implementation, n) sampling cost.
type DrawResult struct {
	Sched string `json:"sched"`
	// Impl is the sampling structure: alias, fenwick, dense, or naive.
	Impl string  `json:"impl"`
	N    int     `json:"n"`
	NsOp float64 `json:"ns_per_draw"`
	// SpeedupVsNaive is NsOp(naive)/NsOp for fast rows, 1 for naive
	// rows.
	SpeedupVsNaive float64 `json:"speedup_vs_naive,omitempty"`
}

// SweepResult is one end-to-end simulation throughput point: the
// scalar per-job path and the replica-batched core on the same job
// shape.
type SweepResult struct {
	Sched    string `json:"sched"`
	Workload string `json:"workload"`
	N        int    `json:"n"`
	Steps    uint64 `json:"steps"`
	// Scalar path: one replica per RunJob call.
	ScalarNsPerStep   float64 `json:"scalar_ns_per_step"`
	ScalarStepsPerSec float64 `json:"scalar_steps_per_sec"`
	// Batched path: BatchWidth same-shape replicas per loop iteration.
	BatchWidth       int     `json:"batch_width"`
	BatchNsPerStep   float64 `json:"batch_ns_per_step"`
	BatchStepsPerSec float64 `json:"batch_steps_per_sec"`
	// BatchSpeedup is ScalarNsPerStep / BatchNsPerStep.
	BatchSpeedup float64 `json:"batch_speedup"`
}

// TraceResult is one trace-format measurement over the identical
// event stream of a uniform run: encode and decode cost per event,
// output size, and the end-to-end cost of running the simulation with
// the writer attached.
type TraceResult struct {
	// Format is ndjson, bin, or bin-gzip.
	Format string `json:"format"`
	N      int    `json:"n"`
	Steps  uint64 `json:"steps"`
	// Events is the number of events the run emitted.
	Events int `json:"events"`
	// Bytes is the encoded trace size.
	Bytes         int     `json:"bytes"`
	BytesPerEvent float64 `json:"bytes_per_event"`
	// CompressionVsNDJSON is ndjson bytes / this format's bytes (1 for
	// the ndjson row).
	CompressionVsNDJSON float64 `json:"compression_vs_ndjson"`
	EncodeNsPerEvent    float64 `json:"encode_ns_per_event"`
	DecodeNsPerEvent    float64 `json:"decode_ns_per_event"`
	// TracedNsPerStep is the end-to-end simulation cost with this
	// format's writer attached.
	TracedNsPerStep float64 `json:"traced_ns_per_step"`
	// EncodeOverheadVsNDJSONTracedPct is (traced − untraced) wall time
	// as a percentage of the NDJSON-traced run: what switching this
	// format's tracing on costs, relative to the v1 pipeline it
	// replaces. (Relative to the *untraced* run any per-event call
	// dominates — a ~20 ns/step simulator loop leaves no room — so the
	// honest yardstick for a faster format is the format it displaces.)
	EncodeOverheadVsNDJSONTracedPct float64 `json:"encode_overhead_vs_ndjson_traced_pct"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pwfbench", flag.ContinueOnError)
	var (
		outDir     = fs.String("outdir", "", "write BENCH_sched.json and BENCH_sweep.json into this directory (host metadata stripped) instead of printing to stdout")
		nList      = fs.String("n", "16,256,1024,4096", "comma-separated process counts")
		draws      = fs.Int("draws", 200000, "draws per (scheduler, impl, n) timing")
		steps      = fs.Uint64("steps", 100000, "steps per end-to-end sweep job")
		reps       = fs.Int("reps", 3, "repetitions per timing; the minimum is kept")
		width      = fs.Int("width", 16, "replica-batch width for the batched sweep timings")
		scheds     = fs.String("scheds", "uniform,lottery", "comma-separated scheduler specs for end-to-end sweeps, in the shared grammar (e.g. uniform, sticky:0.9, weighted, phased:1,3@500/1,1@500)")
		workloads  = fs.String("workloads", "scu,stack,queue,rcu,unbounded,lfuniversal", "comma-separated workloads for end-to-end sweeps (subset of scu, stack, queue, rcu, unbounded, lfuniversal)")
		traceN     = fs.Int("tracen", 1024, "process count for the trace-format timings")
		traceSteps = fs.Uint64("tracesteps", 1000000, "steps for the trace-format timings")
		checkPath  = fs.String("check", "", "comma-separated baseline files (BENCH_sweep.json and/or BENCH_trace.json) to compare measured rows against; fail on regression")
		tolerance  = fs.Float64("tolerance", 0.25, "relative slowdown tolerated by -check (0.25 = 25%)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ns, err := parseNList(*nList)
	if err != nil {
		return err
	}
	if *draws < 1 || *steps < 1 || *reps < 1 || *width < 1 {
		return fmt.Errorf("-draws, -steps, -reps and -width must be >= 1")
	}
	if *traceN < 2 || *traceSteps < 1 {
		return fmt.Errorf("-tracen must be >= 2 and -tracesteps >= 1")
	}
	if *tolerance < 0 {
		return fmt.Errorf("-tolerance must be >= 0")
	}
	specs, err := sweep.ParseSchedulerList(*scheds)
	if err != nil {
		return fmt.Errorf("parse -scheds: %w", err)
	}
	wls, err := parseWorkloads(*workloads)
	if err != nil {
		return err
	}

	rep := Report{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Host: &Host{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
	}
	for _, n := range ns {
		res, err := measureDraws(n, *draws, *reps)
		if err != nil {
			return err
		}
		rep.Draw = append(rep.Draw, res...)
	}
	for _, n := range ns {
		res, err := measureSweeps(n, *steps, *reps, *width, specs, wls)
		if err != nil {
			return err
		}
		rep.Sweep = append(rep.Sweep, res...)
	}
	rep.Trace, err = measureTrace(*traceN, *traceSteps, *reps)
	if err != nil {
		return err
	}

	// Compare against the baselines before -outdir overwrites them, but
	// still write the fresh files either way so the new numbers are
	// available as an artifact even on a failing check.
	var checkErr error
	if *checkPath != "" {
		for _, p := range strings.Split(*checkPath, ",") {
			checkErr = errors.Join(checkErr, checkRegression(strings.TrimSpace(p), rep, *tolerance))
		}
	}
	if *outDir != "" {
		if err := writeReports(*outDir, rep); err != nil {
			return err
		}
		return checkErr
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if _, err := out.Write(enc); err != nil {
		return err
	}
	return checkErr
}

// writeReports writes the per-subsystem files with host metadata
// stripped, so regenerating on another machine only diffs the
// numbers.
func writeReports(dir string, rep Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := []struct {
		name string
		rep  Report
	}{
		{"BENCH_sched.json", Report{Draw: rep.Draw}},
		{"BENCH_sweep.json", Report{Sweep: rep.Sweep}},
		{"BENCH_trace.json", Report{Trace: rep.Trace}},
	}
	for _, f := range files {
		enc, err := json.MarshalIndent(f.rep, "", "  ")
		if err != nil {
			return err
		}
		enc = append(enc, '\n')
		if err := os.WriteFile(filepath.Join(dir, f.name), enc, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// checkRegression fails when a measured row is more than tolerance
// worse than the matching row of the baseline file: sweep rows on
// ns/step (scalar or batched), trace rows on encode ns/event and on a
// shrinking compression ratio. Sweep rows are matched on (sched,
// workload, n, steps) and trace rows on (format, n, steps); rows
// without a baseline counterpart pass, so grid changes do not trip
// the gate. One baseline file may carry either or both sections.
func checkRegression(path string, cur Report, tolerance float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("-check baseline: %w", err)
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("-check baseline %s: %w", path, err)
	}
	key := func(r SweepResult) string {
		return fmt.Sprintf("%s|%s|%d|%d", r.Sched, r.Workload, r.N, r.Steps)
	}
	byKey := map[string]SweepResult{}
	for _, r := range base.Sweep {
		byKey[key(r)] = r
	}
	var regressions []string
	for _, r := range cur.Sweep {
		b, ok := byKey[key(r)]
		if !ok {
			continue
		}
		if b.ScalarNsPerStep > 0 && r.ScalarNsPerStep > b.ScalarNsPerStep*(1+tolerance) {
			regressions = append(regressions, fmt.Sprintf(
				"%s %s n=%d scalar: %.2f ns/step vs baseline %.2f",
				r.Sched, r.Workload, r.N, r.ScalarNsPerStep, b.ScalarNsPerStep))
		}
		if b.BatchNsPerStep > 0 && r.BatchNsPerStep > b.BatchNsPerStep*(1+tolerance) {
			regressions = append(regressions, fmt.Sprintf(
				"%s %s n=%d batch: %.2f ns/step vs baseline %.2f",
				r.Sched, r.Workload, r.N, r.BatchNsPerStep, b.BatchNsPerStep))
		}
	}
	traceKey := func(r TraceResult) string {
		return fmt.Sprintf("%s|%d|%d", r.Format, r.N, r.Steps)
	}
	traceByKey := map[string]TraceResult{}
	for _, r := range base.Trace {
		traceByKey[traceKey(r)] = r
	}
	for _, r := range cur.Trace {
		b, ok := traceByKey[traceKey(r)]
		if !ok {
			continue
		}
		if b.EncodeNsPerEvent > 0 && r.EncodeNsPerEvent > b.EncodeNsPerEvent*(1+tolerance) {
			regressions = append(regressions, fmt.Sprintf(
				"trace %s encode: %.2f ns/event vs baseline %.2f",
				r.Format, r.EncodeNsPerEvent, b.EncodeNsPerEvent))
		}
		if b.CompressionVsNDJSON > 0 && r.CompressionVsNDJSON < b.CompressionVsNDJSON/(1+tolerance) {
			regressions = append(regressions, fmt.Sprintf(
				"trace %s compression: %.2fx vs NDJSON, baseline %.2fx",
				r.Format, r.CompressionVsNDJSON, b.CompressionVsNDJSON))
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("benchmarks regressed beyond %.0f%% vs %s:\n  %s",
			tolerance*100, path, strings.Join(regressions, "\n  "))
	}
	return nil
}

func parseNList(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 8 {
			return nil, fmt.Errorf("bad -n entry %q (need integers >= 8)", f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -n list")
	}
	return out, nil
}

// samplerSpec names one (scheduler, impl) timing configuration. The
// build function crashes n/8 processes first so the measured path is
// the crash-mode one — the case the constant-time structures exist
// for — and returns the draw closure.
type samplerSpec struct {
	sched string
	impl  string
	build func(n int) (func() (int, error), error)
}

func samplers() []samplerSpec {
	crashSome := func(c sched.Crasher, n int) error {
		for pid := 0; pid < n/8; pid++ {
			if err := c.Crash(pid); err != nil {
				return err
			}
		}
		return nil
	}
	weights := func(n int) []float64 {
		ws := make([]float64, n)
		for i := range ws {
			ws[i] = float64(i%17 + 1)
		}
		return ws
	}
	tickets := func(n int) []int {
		ts := make([]int, n)
		for i := range ts {
			ts[i] = i%9 + 1
		}
		return ts
	}
	return []samplerSpec{
		{"uniform", "dense", func(n int) (func() (int, error), error) {
			u, err := sched.NewUniform(n, rng.New(1))
			if err != nil {
				return nil, err
			}
			return u.Next, crashSome(u, n)
		}},
		{"uniform", "naive", func(n int) (func() (int, error), error) {
			u, err := sched.NewUniform(n, rng.New(1))
			if err != nil {
				return nil, err
			}
			return u.NextNaive, crashSome(u, n)
		}},
		{"weighted", "alias", func(n int) (func() (int, error), error) {
			w, err := sched.NewWeighted(weights(n), rng.New(2))
			if err != nil {
				return nil, err
			}
			return w.Next, crashSome(w, n)
		}},
		{"weighted", "naive", func(n int) (func() (int, error), error) {
			w, err := sched.NewWeighted(weights(n), rng.New(2))
			if err != nil {
				return nil, err
			}
			return w.NextNaive, crashSome(w, n)
		}},
		{"lottery", "fenwick", func(n int) (func() (int, error), error) {
			l, err := sched.NewLottery(tickets(n), rng.New(3))
			if err != nil {
				return nil, err
			}
			return l.Next, crashSome(l, n)
		}},
		{"lottery", "naive", func(n int) (func() (int, error), error) {
			l, err := sched.NewLottery(tickets(n), rng.New(3))
			if err != nil {
				return nil, err
			}
			return l.NextNaive, crashSome(l, n)
		}},
		{"sticky", "dense", func(n int) (func() (int, error), error) {
			s, err := sched.NewSticky(n, 0.8, rng.New(4))
			if err != nil {
				return nil, err
			}
			return s.Next, crashSome(s, n)
		}},
		{"sticky", "naive", func(n int) (func() (int, error), error) {
			s, err := sched.NewSticky(n, 0.8, rng.New(4))
			if err != nil {
				return nil, err
			}
			return s.NextNaive, crashSome(s, n)
		}},
		{"phased", "alias", func(n int) (func() (int, error), error) {
			p, err := sched.NewPhased(n, phases(weights(n)), rng.New(5))
			if err != nil {
				return nil, err
			}
			return p.Next, crashSome(p, n)
		}},
		{"phased", "naive", func(n int) (func() (int, error), error) {
			p, err := sched.NewPhased(n, phases(weights(n)), rng.New(5))
			if err != nil {
				return nil, err
			}
			return p.NextNaive, crashSome(p, n)
		}},
	}
}

func phases(ws []float64) []sched.Phase {
	return []sched.Phase{
		{Weights: ws, Steps: 64},
		{Weights: ws, Steps: 32},
	}
}

// sink keeps the timed loops from being dead-code-eliminated.
var sink int

func measureDraws(n, draws, reps int) ([]DrawResult, error) {
	var out []DrawResult
	naiveNs := map[string]float64{}
	for _, spec := range samplers() {
		next, err := spec.build(n)
		if err != nil {
			return nil, fmt.Errorf("build %s/%s n=%d: %w", spec.sched, spec.impl, n, err)
		}
		best := 0.0
		for r := 0; r < reps; r++ {
			start := time.Now()
			for i := 0; i < draws; i++ {
				pid, err := next()
				if err != nil {
					return nil, fmt.Errorf("draw %s/%s n=%d: %w", spec.sched, spec.impl, n, err)
				}
				sink += pid
			}
			ns := float64(time.Since(start).Nanoseconds()) / float64(draws)
			if r == 0 || ns < best {
				best = ns
			}
		}
		res := DrawResult{Sched: spec.sched, Impl: spec.impl, N: n, NsOp: best}
		if spec.impl == "naive" {
			naiveNs[spec.sched] = best
			res.SpeedupVsNaive = 1
		}
		out = append(out, res)
	}
	// The naive row of each scheduler is measured after its fast row,
	// so fill speedups in a second pass.
	for i := range out {
		if out[i].Impl != "naive" {
			if nn, ok := naiveNs[out[i].Sched]; ok && out[i].NsOp > 0 {
				out[i].SpeedupVsNaive = nn / out[i].NsOp
			}
		}
	}
	return out, nil
}

// benchWorkload is one -workloads entry: the name used in rows and in
// the flag, the canonical parameterization, and the largest n it is
// measured at (0 = unlimited). The pointer-based kinds are capped at
// 1024 because their scalar reference runs are the slow side of the
// comparison and the 4096 column would dominate the whole benchmark's
// wall time without changing the verdict.
type benchWorkload struct {
	name string
	w    sweep.Workload
	maxN int
}

// benchWorkloadCatalog lists every batchable kind the sweep benchmark
// knows, in row order.
var benchWorkloadCatalog = []benchWorkload{
	{"scu", sweep.Workload{Kind: sweep.SCU, S: 1}, 0},
	{"stack", sweep.Workload{Kind: sweep.Stack}, 1024},
	{"queue", sweep.Workload{Kind: sweep.Queue}, 1024},
	{"rcu", sweep.Workload{Kind: sweep.RCU}, 1024},
	{"unbounded", sweep.Workload{Kind: sweep.Unbounded}, 1024},
	{"lfuniversal", sweep.Workload{Kind: sweep.LFUniversal}, 1024},
}

// parseWorkloads resolves the -workloads list against the catalogue,
// keeping catalogue order so the emitted rows are stable regardless of
// how the flag orders its entries.
func parseWorkloads(s string) ([]benchWorkload, error) {
	want := map[string]bool{}
	for _, f := range strings.Split(s, ",") {
		name := strings.TrimSpace(f)
		if name == "" {
			continue
		}
		found := false
		for _, bw := range benchWorkloadCatalog {
			if bw.name == name {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown -workloads entry %q (have: scu, stack, queue, rcu, unbounded, lfuniversal)", name)
		}
		want[name] = true
	}
	var out []benchWorkload
	for _, bw := range benchWorkloadCatalog {
		if want[bw.name] {
			out = append(out, bw)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -workloads list")
	}
	return out, nil
}

func measureSweeps(n int, steps uint64, reps, width int, specs []sweep.SchedulerSpec, wls []benchWorkload) ([]SweepResult, error) {
	var out []SweepResult
	for _, bw := range wls {
		if bw.maxN > 0 && n > bw.maxN {
			continue
		}
		for _, spec := range specs {
			job := sweep.Job{
				Workload: bw.w,
				N:        n,
				Sched:    spec,
				Steps:    steps,
				Crash:    1,
			}
			scalar := time.Duration(0)
			for r := 0; r < reps; r++ {
				start := time.Now()
				if _, err := sweep.RunJob(job, 1, nil); err != nil {
					return nil, fmt.Errorf("sweep %s/%s n=%d: %w", bw.name, spec.Kind, n, err)
				}
				if d := time.Since(start); r == 0 || d < scalar {
					scalar = d
				}
			}
			batchJob := job
			batchJob.Replicas = width
			cfg := sweep.Config{
				Jobs:         []sweep.Job{batchJob},
				Seed:         1,
				Workers:      1,
				ReplicaBatch: width,
			}
			batch := time.Duration(0)
			for r := 0; r < reps; r++ {
				start := time.Now()
				if _, err := sweep.Run(cfg); err != nil {
					return nil, fmt.Errorf("batched sweep %s/%s n=%d: %w", bw.name, spec.Kind, n, err)
				}
				if d := time.Since(start); r == 0 || d < batch {
					batch = d
				}
			}
			scalarNs := float64(scalar.Nanoseconds()) / float64(steps)
			batchNs := float64(batch.Nanoseconds()) / (float64(steps) * float64(width))
			out = append(out, SweepResult{
				Sched:             spec.String(),
				Workload:          bw.name,
				N:                 n,
				Steps:             steps,
				ScalarNsPerStep:   scalarNs,
				ScalarStepsPerSec: float64(steps) / scalar.Seconds(),
				BatchWidth:        width,
				BatchNsPerStep:    batchNs,
				BatchStepsPerSec:  float64(steps) * float64(width) / batch.Seconds(),
				BatchSpeedup:      scalarNs / batchNs,
			})
		}
	}
	return out, nil
}

// traceVariants is the fixed format grid of the trace benchmark. The
// NDJSON row must come first: later rows report size and overhead
// relative to it.
var traceVariants = []struct {
	name   string
	format obs.TraceFormat
	comp   obs.Compression
}{
	{"ndjson", obs.TraceNDJSON, obs.CompressNone},
	{"bin", obs.TraceBinary, obs.CompressNone},
	{"bin-gzip", obs.TraceBinary, obs.CompressGzip},
}

// eventSink captures a run's event stream in memory so the encoders
// can be timed over the identical events, isolated from the
// simulator's own cost.
type eventSink struct{ events []obs.Event }

func (s *eventSink) Record(e obs.Event) { s.events = append(s.events, e) }

// measureTrace times the trace pipeline on one uniform SCU run: the
// per-event encode and decode cost of each format over the same
// captured event stream, the encoded sizes, and the end-to-end cost
// of the traced run against an untraced baseline.
func measureTrace(n int, steps uint64, reps int) ([]TraceResult, error) {
	job := sweep.Job{
		Workload: sweep.Workload{Kind: sweep.SCU, S: 1},
		N:        n,
		Sched:    sweep.SchedulerSpec{Kind: sweep.SchedUniform},
		Steps:    steps,
	}
	untraced := time.Duration(0)
	for r := 0; r < reps; r++ {
		start := time.Now()
		if _, err := sweep.RunJob(job, 1, nil); err != nil {
			return nil, fmt.Errorf("trace baseline n=%d: %w", n, err)
		}
		if d := time.Since(start); r == 0 || d < untraced {
			untraced = d
		}
	}
	sink := &eventSink{}
	capJob := job
	capJob.Recorder = sink
	if _, err := sweep.RunJob(capJob, 1, nil); err != nil {
		return nil, fmt.Errorf("trace capture n=%d: %w", n, err)
	}
	events := sink.events
	if len(events) == 0 {
		return nil, fmt.Errorf("trace capture n=%d: run emitted no events", n)
	}

	var out []TraceResult
	var ndjsonBytes int
	var ndjsonTraced time.Duration
	for _, v := range traceVariants {
		var raw []byte
		encode := time.Duration(0)
		for r := 0; r < reps; r++ {
			var buf bytes.Buffer
			w, err := obs.NewTraceWriter(&buf, v.format, v.comp)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			for i := range events {
				w.Record(events[i])
			}
			if err := w.Flush(); err != nil {
				return nil, fmt.Errorf("trace %s: encode: %w", v.name, err)
			}
			if d := time.Since(start); r == 0 || d < encode {
				encode = d
			}
			raw = buf.Bytes()
		}
		decode := time.Duration(0)
		for r := 0; r < reps; r++ {
			start := time.Now()
			back, err := obs.ReadTrace(bytes.NewReader(raw))
			if err != nil {
				return nil, fmt.Errorf("trace %s: decode: %w", v.name, err)
			}
			if len(back) != len(events) {
				return nil, fmt.Errorf("trace %s: decoded %d of %d events", v.name, len(back), len(events))
			}
			if d := time.Since(start); r == 0 || d < decode {
				decode = d
			}
		}
		traced := time.Duration(0)
		for r := 0; r < reps; r++ {
			w, err := obs.NewTraceWriter(io.Discard, v.format, v.comp)
			if err != nil {
				return nil, err
			}
			tracedJob := job
			tracedJob.Recorder = w
			start := time.Now()
			if _, err := sweep.RunJob(tracedJob, 1, nil); err != nil {
				return nil, fmt.Errorf("trace %s: traced run: %w", v.name, err)
			}
			if err := w.Flush(); err != nil {
				return nil, fmt.Errorf("trace %s: traced run: %w", v.name, err)
			}
			if d := time.Since(start); r == 0 || d < traced {
				traced = d
			}
		}
		if v.name == "ndjson" {
			ndjsonBytes = len(raw)
			ndjsonTraced = traced
		}
		overhead := float64(traced-untraced) / float64(ndjsonTraced) * 100
		if overhead < 0 {
			overhead = 0 // timing noise: tracing cannot be cheaper than not tracing
		}
		out = append(out, TraceResult{
			Format:                          v.name,
			N:                               n,
			Steps:                           steps,
			Events:                          len(events),
			Bytes:                           len(raw),
			BytesPerEvent:                   float64(len(raw)) / float64(len(events)),
			CompressionVsNDJSON:             float64(ndjsonBytes) / float64(len(raw)),
			EncodeNsPerEvent:                float64(encode.Nanoseconds()) / float64(len(events)),
			DecodeNsPerEvent:                float64(decode.Nanoseconds()) / float64(len(events)),
			TracedNsPerStep:                 float64(traced.Nanoseconds()) / float64(steps),
			EncodeOverheadVsNDJSONTracedPct: overhead,
		})
	}
	return out, nil
}
