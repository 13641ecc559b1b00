package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"pwf"
	"pwf/internal/api"
	"pwf/internal/checkpoint"
	"pwf/internal/obs"
	"pwf/internal/sweep"
)

// gridSpec is what distinguishes the two grid workloads.
type gridSpec struct {
	ns         []int
	steps      uint64
	checkpoint bool // commit every point to a checkpoint.Log, as pwfsweep -checkpoint
	recorder   bool // record the sweep to a binary v2 trace with per-frame gzip
}

// runPaperGrid is pwfsweep's main action: the paper grid with seed
// replicas, batched at width 16 with family batching, checkpointed at
// the default FlushEvery, written out as canonical NDJSON.
func runPaperGrid(cfg *runConfig) (*report, error) {
	return runGrid(cfg, gridSpec{ns: cfg.size.paperNs, steps: cfg.size.paperSteps, checkpoint: true})
}

// runTracedGrid is pwfsweep's default grid (n <= 64) at fewer steps,
// with a sweep recorder writing a binary trace; today every point
// falls back to the scalar path.
func runTracedGrid(cfg *runConfig) (*report, error) {
	return runGrid(cfg, gridSpec{ns: cfg.size.tracedNs, steps: cfg.size.tracedSteps, recorder: true})
}

// passStats is what one pass over the grid measured.
type passStats struct {
	wall, firstLine time.Duration
	cpu             time.Duration // process CPU time of the pass
	alloc           uint64        // bytes the process allocated during the pass
	busy            time.Duration // Σ Result.Elapsed
	elapsed         []float64     // per-point Elapsed, ms
	outPath         string        // canonical NDJSON written by the pass
	ckptPath        string
	tracePath       string
	traceErr        error
	outBytes        int64
	events          uint64 // decoded trace events
	spans           bool
	flush           time.Duration
	recordNS        int64 // sampled Record time of the trace writer
	recordSamples   uint64
}

func sweepConfig(cfg *runConfig, jobs []pwf.SweepJob, reg *obs.Registry) pwf.SweepConfig {
	return pwf.SweepConfig{
		Jobs:          jobs,
		Seed:          cfg.seed,
		Workers:       workers,
		BatchFamilies: true,
		ReplicaBatch:  16,
		Registry:      reg,
	}
}

func runGrid(cfg *runConfig, spec gridSpec) (*report, error) {
	rep := &report{}
	reg := obs.NewRegistry()
	size := cfg.size

	// Set-up: generate the grid, create its checkpoint, and run one
	// warm-up sweep over every shape, several times; setup_s is the
	// median.
	var jobs []pwf.SweepJob
	for i := 0; i < size.setups; i++ {
		runtime.GC()
		t0 := time.Now()
		jobs = paperJobs(spec.ns, size.replicas, spec.steps)
		if spec.checkpoint {
			path := filepath.Join(cfg.dir, fmt.Sprintf("setup%d.ckpt", i))
			cp, err := checkpoint.Open(path, sweepConfig(cfg, jobs, reg), checkpoint.Options{Registry: obs.NewRegistry()})
			if err != nil {
				return nil, err
			}
			if err := cp.Close(); err != nil {
				return nil, err
			}
		}
		warm := paperJobs(spec.ns, 2, size.warmupSteps)
		for j := range warm {
			// At n = 1024 every process needs tens of its own steps
			// before operations complete.
			warm[j].Steps = max(warm[j].Steps, 32*uint64(warm[j].N))
		}
		wcfg := sweepConfig(cfg, warm, obs.NewRegistry())
		wcfg.Seed = seedFor(cfg.seed, 1000+i)
		if _, err := pwf.RunSweep(wcfg); err != nil {
			return nil, fmt.Errorf("warm-up sweep: %w", err)
		}
		rep.setups = append(rep.setups, time.Since(t0).Seconds())
	}
	points := len(jobs)

	before := reg.Snapshot()
	traceBefore := obs.Default.Snapshot()
	// Passes repeat until their timed walls add up to the run length;
	// between passes the run decodes the pass's trace and deletes it,
	// so traces never pile up on disk.
	var (
		passes   []passStats
		measured time.Duration
	)
	for p := 0; p < size.minPasses || measured < cfg.seconds; p++ {
		// A traced run alternates passes with and without spans, so
		// the spans' own cost is measured on the same workload.
		withSpans := cfg.trace && p%2 == 1
		ps, err := gridPass(cfg, spec, jobs, reg, p, withSpans)
		if err != nil {
			return nil, err
		}
		if spec.recorder {
			ps.events, ps.traceErr = countTraceEvents(ps.tracePath)
			_ = os.Remove(ps.tracePath)
		}
		rep.allocKB = append(rep.allocKB, float64(ps.alloc)/1024/float64(points))
		passes = append(passes, ps)
		measured += ps.wall
		rep.attempted += points
		rep.rates = append(rep.rates, float64(points)/ps.wall.Seconds())
		rep.sweepLat = append(rep.sweepLat, ms(ps.wall))
		rep.firstLine = append(rep.firstLine, ms(ps.firstLine))
		rep.cpu = append(rep.cpu, ms(ps.cpu))
	}
	rep.peakRSSMB = peakRSSMB()
	after := reg.Snapshot()
	traceAfter := obs.Default.Snapshot()

	// Verification, outside the measured window: a width-1 reference
	// of the same grid and seed, which every pass's output (and
	// checkpoint) must match byte for byte.
	ref, refEvents, err := gridReference(cfg, spec, jobs)
	if err != nil {
		return nil, err
	}
	for i, ps := range passes {
		bad := mismatches(readFile(ps.outPath), ref)
		var why []string
		if len(bad) > 0 {
			why = append(why, fmt.Sprintf("%d output lines differ from the width-1 reference", len(bad)))
		}
		if spec.checkpoint {
			cbad := mismatches(checkpointLines(ps.ckptPath), ref)
			if len(cbad) > 0 {
				why = append(why, fmt.Sprintf("%d checkpoint records differ from it", len(cbad)))
			}
			maps.Copy(bad, cbad)
		}
		if spec.recorder && (ps.traceErr != nil || ps.events != refEvents) {
			why = append(why, fmt.Sprintf("its trace decodes to %d events (%v), the width-1 run emitted %d", ps.events, ps.traceErr, refEvents))
			for p := 0; p < points; p++ {
				bad[p] = true
			}
		}
		if len(bad) > 0 {
			rep.fail(min(len(bad), points), "pass %d: %s", i, strings.Join(why, "; "))
		}
	}
	if d := delta(traceBefore, traceAfter, "trace_events_dropped"); d > 0 {
		rep.fail(0, "%d trace events dropped", d)
	}
	checkRecorded(rep, cfg, recordedDigest{SHA256: digest(ref), Events: refEvents})

	if cfg.trace {
		if err := gridLayers(cfg, spec, rep, passes, jobs, before, after); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// gridPass runs the grid once, timed from the sweep's start to the
// last byte of its output written and its checkpoint closed.
func gridPass(cfg *runConfig, spec gridSpec, jobs []pwf.SweepJob, reg *obs.Registry, p int, withSpans bool) (passStats, error) {
	ps := passStats{
		outPath:  filepath.Join(cfg.dir, fmt.Sprintf("pass%d.ndjson", p)),
		ckptPath: filepath.Join(cfg.dir, fmt.Sprintf("pass%d.ckpt", p)),
		spans:    withSpans,
	}
	tr := cfg.tr
	if !withSpans {
		tr = nil
	}
	sweepID := p + 1
	scfg := sweepConfig(cfg, jobs, reg)
	var cp *checkpoint.Log
	if spec.checkpoint {
		var err error
		cp, err = checkpoint.Open(ps.ckptPath, scfg, checkpoint.Options{Registry: reg})
		if err != nil {
			return ps, err
		}
		defer cp.Close()
	}
	var (
		traceFile *os.File
		timed     *timedRecorder
		opts      []pwf.SweepOption
	)
	if spec.recorder {
		var err error
		traceFile, err = os.Create(filepath.Join(cfg.dir, fmt.Sprintf("pass%d.pwft", p)))
		if err != nil {
			return ps, err
		}
		ps.tracePath = traceFile.Name()
		defer traceFile.Close()
	}
	runtime.GC()
	// Creating the checkpoint waited on the disk; wake both CPUs again
	// so the pass is not timed through their ramp back to speed.
	spin(50 * time.Millisecond)

	// Spans: "pass" is the whole user action; under it "sweep" (the
	// RunSweep call, with one "commit" per checkpointed point),
	// "flush", one "encode" per output line, and "close".
	root, sweepSpan := tr.reserve(), tr.reserve()
	t0, c0, a0 := time.Now(), cpuTime(), allocBytes()
	spanStart := tr.begin()
	if cp != nil {
		scfg.Checkpoint = cp
		if tr != nil {
			scfg.Checkpoint = &timedCheckpoint{inner: cp, tr: tr, parent: sweepSpan, sweep: sweepID}
		}
	}
	if traceFile != nil {
		if tr == nil {
			opts = append(opts, pwf.WithTraceFormat(traceFile, pwf.TraceFormatBinary, pwf.TraceCompressGzip))
		} else {
			w, err := pwf.NewTraceWriter(traceFile, pwf.TraceFormatBinary, pwf.TraceCompressGzip)
			if err != nil {
				return ps, err
			}
			timed = &timedRecorder{inner: w}
			opts = append(opts, pwf.WithRecorder(timed))
		}
	}
	results, err := pwf.RunSweep(scfg, opts...)
	if err != nil {
		return ps, fmt.Errorf("pass %d: %w", p, err)
	}
	tr.fill(sweepSpan, "sweep", spanStart, root, sweepID)
	if timed != nil {
		// The timing wrapper hides Flush from RunSweep, so the pass
		// flushes the trace itself, as its own span.
		f0 := tr.begin()
		ft := time.Now()
		if err := timed.inner.Flush(); err != nil {
			return ps, fmt.Errorf("flush trace: %w", err)
		}
		ps.flush = time.Since(ft)
		tr.end("flush", f0, root, sweepID)
		ps.recordNS, ps.recordSamples = timed.ns.Load(), timed.sampled.Load()
	}
	// pwfsweep writes its output once the sweep completes; the first
	// line a user sees is the first line of that file.
	var firstAt time.Time
	ps.outBytes, err = writeLines(tr, ps.outPath, results, root, sweepID, &firstAt)
	if err != nil {
		return ps, err
	}
	ps.firstLine = firstAt.Sub(t0)
	if cp != nil {
		c0 := tr.begin()
		if err := cp.Close(); err != nil {
			return ps, err
		}
		tr.end("close", c0, root, sweepID)
	}
	ps.wall, ps.cpu, ps.alloc = time.Since(t0), cpuTime()-c0, allocBytes()-a0
	tr.fill(root, "pass", spanStart, 0, sweepID)

	for _, r := range results {
		ps.busy += r.Elapsed
		ps.elapsed = append(ps.elapsed, ms(r.Elapsed))
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			return ps, err
		}
	}
	return ps, nil
}

// gridReference runs the grid on the width-1 path and returns its
// canonical NDJSON; for the traced grid it also counts the events the
// simulator emits.
func gridReference(cfg *runConfig, spec gridSpec, jobs []pwf.SweepJob) ([]byte, uint64, error) {
	scfg := sweepConfig(cfg, jobs, obs.NewRegistry())
	scfg.ReplicaBatch, scfg.Workers = 1, refWorkers
	var counter eventCounter
	if spec.recorder {
		scfg.Recorder = &counter
	}
	results, err := pwf.RunSweep(scfg)
	if err != nil {
		return nil, 0, fmt.Errorf("width-1 reference: %w", err)
	}
	b, err := encodeResults(results)
	return b, counter.n.Load(), err
}

// checkpointLines loads a pass's checkpoint and renders its records in
// index order as canonical NDJSON (nil if it does not load).
func checkpointLines(path string) []byte {
	_, recs, err := checkpoint.Load(path)
	if err != nil {
		return nil
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a].Index < recs[b].Index })
	var out bytes.Buffer
	for _, r := range recs {
		if err := api.WriteResultLine(&out, r); err != nil {
			return nil
		}
	}
	return out.Bytes()
}

// countTraceEvents decodes a binary trace, streaming, and counts its
// events.
func countTraceEvents(path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	rd, err := obs.NewBinaryTraceReader(f)
	if err != nil {
		return 0, err
	}
	var n uint64
	for {
		_, err := rd.Next()
		if errors.Is(err, io.EOF) {
			return n, nil
		}
		if err != nil {
			return n, fmt.Errorf("decode %s: %w", path, err)
		}
		n++
	}
}

// eventCounter is a Recorder that only counts.
type eventCounter struct{ n atomic.Uint64 }

func (c *eventCounter) Record(obs.Event) { c.n.Add(1) }

// timedRecorder wraps the trace writer and times the Record calls of
// one simulated step in 64. Sampling on the event's own step number
// keeps shared state off the untimed calls, so the timing stays a
// small share of the cost it measures.
type timedRecorder struct {
	inner   pwf.TraceWriter
	sampled atomic.Uint64
	ns      atomic.Int64
}

func (t *timedRecorder) Record(e obs.Event) {
	if e.Step&63 != 0 {
		t.inner.Record(e)
		return
	}
	t0 := time.Now()
	t.inner.Record(e)
	t.ns.Add(int64(time.Since(t0)))
	t.sampled.Add(1)
}

// timedCheckpoint wraps a checkpoint.Log and records every Commit as
// a span; sweep workers call it concurrently.
type timedCheckpoint struct {
	inner  *checkpoint.Log
	tr     *tracer
	parent int
	sweep  int
}

func (t *timedCheckpoint) Restore(i int) (sweep.Result, bool) { return t.inner.Restore(i) }

func (t *timedCheckpoint) Commit(r sweep.Result) error {
	t0 := t.tr.begin()
	err := t.inner.Commit(r)
	t.tr.end("commit", t0, t.parent, t.sweep)
	return err
}

func delta(before, after obs.Snapshot, name string) uint64 {
	return after.Counters[name] - before.Counters[name]
}
