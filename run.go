package pwf

import (
	"fmt"
	"io"

	"pwf/internal/checkpoint"
	"pwf/internal/obs"
	"pwf/internal/sweep"
)

// Workload is a declarative description of a simulated algorithm —
// the unit of the unified Run API and of sweep grids. Construct one
// with the *Workload helpers or as a literal.
type Workload = sweep.Workload

// WorkloadKind names an algorithm family.
type WorkloadKind = sweep.WorkloadKind

// SchedulerSpec is a declarative, reusable description of a scheduler
// (unlike the New*Scheduler constructors, which return a stateful
// instance bound to one n and seed).
type SchedulerSpec = sweep.SchedulerSpec

// SCUWorkload describes Algorithm 2 with parameters (q, s).
func SCUWorkload(q, s int) Workload {
	return Workload{Kind: sweep.SCU, Q: q, S: s}
}

// FetchIncWorkload describes the augmented-CAS fetch-and-increment
// counter (Algorithm 5).
func FetchIncWorkload() Workload { return Workload{Kind: sweep.FetchInc} }

// ParallelWorkload describes q-step parallel code (Algorithm 4).
func ParallelWorkload(q int) Workload {
	return Workload{Kind: sweep.Parallel, Q: q}
}

// UnboundedWorkload describes Algorithm 1; waitFactor 0 selects the
// paper's n².
func UnboundedWorkload(waitFactor int64) Workload {
	return Workload{Kind: sweep.Unbounded, WaitFactor: waitFactor}
}

// StackWorkload describes the simulated Treiber stack.
func StackWorkload() Workload { return Workload{Kind: sweep.Stack} }

// QueueWorkload describes the simulated Michael–Scott queue.
func QueueWorkload() Workload { return Workload{Kind: sweep.Queue} }

// RCUWorkload describes the read-mostly RCU-style workload (~3/4
// readers, CAS-published snapshots).
func RCUWorkload() Workload { return Workload{Kind: sweep.RCU} }

// LFUniversalWorkload describes the lock-free universal construction
// applied to a counter object.
func LFUniversalWorkload() Workload { return Workload{Kind: sweep.LFUniversal} }

// UniformSpec describes the paper's uniform stochastic scheduler.
func UniformSpec() SchedulerSpec { return SchedulerSpec{Kind: sweep.SchedUniform} }

// StickySpec describes the Markov-modulated scheduler with stickiness
// rho in [0, 1).
func StickySpec(rho float64) SchedulerSpec {
	return SchedulerSpec{Kind: sweep.SchedSticky, Rho: rho}
}

// RoundRobinSpec describes the deterministic fair baseline.
func RoundRobinSpec() SchedulerSpec {
	return SchedulerSpec{Kind: sweep.SchedRoundRobin}
}

// LotterySpec describes ticket-based lottery scheduling; nil tickets
// give every process one ticket.
func LotterySpec(tickets []int) SchedulerSpec {
	return SchedulerSpec{Kind: sweep.SchedLottery, Tickets: tickets}
}

// ParseScheduler parses the CLI scheduler syntax — uniform,
// roundrobin, lottery, sticky:<rho>, adversary:<victim> — into a
// SchedulerSpec.
func ParseScheduler(name string) (SchedulerSpec, error) {
	return sweep.ParseScheduler(name)
}

// RunConfig is the input of Run: a workload, a process count, and
// measurement settings. NewRunConfig fills in the defaults; the With*
// functional options override them.
type RunConfig struct {
	// Workload is the simulated algorithm.
	Workload Workload
	// N is the number of processes.
	N int
	// Steps is the measurement window in system steps.
	Steps uint64
	// WarmupFraction is the warmup before the measurement window as a
	// fraction of Steps; it must lie in [0, 1).
	WarmupFraction float64
	// Seed drives all simulation randomness.
	Seed uint64
	// Scheduler selects the scheduler model.
	Scheduler SchedulerSpec
	// Recorder, when non-nil, receives the run's step-level telemetry
	// events (package obs semantics; see WithRecorder/WithTrace).
	Recorder Recorder
	// Cache memoizes exact-chain constructions; nil selects the
	// process-wide default cache.
	Cache *ChainCache
}

// Default measurement settings of NewRunConfig.
const (
	DefaultSteps = 1_000_000
	// DefaultWarmupFraction is the conventional 10% warmup the
	// deprecated Simulate* functions always used.
	DefaultWarmupFraction = sweep.DefaultWarmupFraction
	DefaultSeed           = 1
)

// Option configures Run, RunSweep, or both. Every With* constructor
// states its scope; most options apply to both entry points and are
// defined once, not mirrored. Applying an option outside its scope is
// an error (Run and RunSweep report it), so misuse fails loudly
// instead of being dropped. Use AppliesToRun/AppliesToSweep to check
// a scope programmatically, and ScopeNote for the documented reason a
// single-scoped option does not lift.
type Option struct {
	name  string
	run   func(*RunConfig)
	sweep func(*SweepConfig)
	// scopeNote documents why a single-scoped option does not apply
	// to the other entry point.
	scopeNote string
}

// RunOption is kept as a name for Options passed to Run.
type RunOption = Option

// SweepOption is kept as a name for Options passed to RunSweep.
type SweepOption = Option

// Name returns the option's constructor name, e.g. "WithSeed".
func (o Option) Name() string { return o.name }

// AppliesToRun reports whether the option configures Run.
func (o Option) AppliesToRun() bool { return o.run != nil }

// AppliesToSweep reports whether the option configures RunSweep.
func (o Option) AppliesToSweep() bool { return o.sweep != nil }

// ScopeNote returns the documented reason a single-scoped option does
// not lift to the other entry point (empty for dual-scoped options).
func (o Option) ScopeNote() string { return o.scopeNote }

// WithScheduler selects the scheduler model (default: uniform).
// Run-only: each sweep job carries its own SchedulerSpec.
func WithScheduler(s SchedulerSpec) Option {
	return Option{
		name:      "WithScheduler",
		run:       func(c *RunConfig) { c.Scheduler = s },
		scopeNote: "each sweep job carries its own SchedulerSpec",
	}
}

// WithSteps sets the measurement window (default: DefaultSteps).
// Run-only: Steps is a per-job field of SweepJob.
func WithSteps(steps uint64) Option {
	return Option{
		name:      "WithSteps",
		run:       func(c *RunConfig) { c.Steps = steps },
		scopeNote: "Steps is a per-job field of SweepJob",
	}
}

// WithWarmupFraction sets the warmup as a fraction of the measurement
// window (default: DefaultWarmupFraction for Run). On a sweep it
// overrides every job's WarmupFraction. Values outside [0, 1) are
// rejected.
func WithWarmupFraction(f float64) Option {
	return Option{
		name:  "WithWarmupFraction",
		run:   func(c *RunConfig) { c.WarmupFraction = f },
		sweep: func(c *SweepConfig) { c.Warmup = &f },
	}
}

// WithSeed sets the rng seed (default: DefaultSeed). On a sweep it is
// the master seed job streams derive from.
func WithSeed(seed uint64) Option {
	return Option{
		name:  "WithSeed",
		run:   func(c *RunConfig) { c.Seed = seed },
		sweep: func(c *SweepConfig) { c.Seed = seed },
	}
}

// WithRecorder attaches a step-level telemetry recorder: the run
// emits scheduling, CAS, retry, operation-boundary, and crash events
// to it (default: none; the disabled hooks cost one branch per step).
// On a sweep the recorder additionally receives job lifecycle events;
// jobs run concurrently, so it must be safe for concurrent use and
// events from different jobs interleave nondeterministically. Combine
// sinks with MultiRecorder.
func WithRecorder(r Recorder) Option {
	return Option{
		name:  "WithRecorder",
		run:   func(c *RunConfig) { c.Recorder = r },
		sweep: func(c *SweepConfig) { c.Recorder = r },
	}
}

// WithTrace records the run's (or the whole sweep's) events as NDJSON
// to w, one event per line (a convenience over
// WithRecorder(NewTraceRecorder(w)); the trace is flushed when
// Run/RunSweep returns). It replaces any previously set recorder — to
// trace and aggregate metrics at once, compose explicitly with
// MultiRecorder. In a sweep, use the job_start/job_end Job index to
// attribute interleaved step events.
func WithTrace(w io.Writer) Option {
	rec := func() *TraceRecorder { return obs.NewTraceRecorder(w) }
	return Option{
		name:  "WithTrace",
		run:   func(c *RunConfig) { c.Recorder = rec() },
		sweep: func(c *SweepConfig) { c.Recorder = rec() },
	}
}

// invalidRecorder is the Recorder WithTraceFormat installs when its
// arguments are invalid. Option constructors cannot return errors, so
// the error rides the config and Run/RunSweep fail fast on it before
// touching the simulator.
type invalidRecorder struct{ err error }

func (invalidRecorder) Record(Event) {}

// checkRecorder surfaces an option-construction error carried by the
// configured recorder.
func checkRecorder(r Recorder) error {
	if bad, ok := r.(invalidRecorder); ok {
		return bad.err
	}
	return nil
}

// WithTraceFormat records the run's (or the whole sweep's) events to w
// in the selected trace format — TraceFormatNDJSON for the v1
// line-oriented format or TraceFormatBinary for the compact v2 framing
// — with optional per-frame compression (binary only; see
// NewTraceWriter). It is WithTrace with the format made explicit:
//
//	pwf.WithTraceFormat(f, pwf.TraceFormatBinary, pwf.TraceCompressGzip)
//
// Like WithTrace it replaces any previously set recorder and flushes
// when Run/RunSweep returns. Invalid format/compression combinations
// are reported by Run/RunSweep, not silently ignored.
func WithTraceFormat(w io.Writer, format TraceFormat, comp TraceCompression) Option {
	rec := func() Recorder {
		tw, err := obs.NewTraceWriter(w, format, comp)
		if err != nil {
			return invalidRecorder{err}
		}
		return tw
	}
	return Option{
		name:  "WithTraceFormat",
		run:   func(c *RunConfig) { c.Recorder = rec() },
		sweep: func(c *SweepConfig) { c.Recorder = rec() },
	}
}

// WithChainCache selects the memoization cache for exact-chain
// analyses (default: the process-wide cache shared by all runs).
func WithChainCache(cache *ChainCache) Option {
	return Option{
		name:  "WithChainCache",
		run:   func(c *RunConfig) { c.Cache = cache },
		sweep: func(c *SweepConfig) { c.Cache = cache },
	}
}

// WithWorkers bounds the sweep's worker pool (default: GOMAXPROCS).
// Results are identical for any worker count. Sweep-only: Run
// executes exactly one job, so there is no pool to size.
func WithWorkers(workers int) Option {
	return Option{
		name:      "WithWorkers",
		sweep:     func(c *SweepConfig) { c.Workers = workers },
		scopeNote: "Run executes exactly one job, so there is no pool to size",
	}
}

// WithProgress calls fn after each sweep job completes with the
// number of completed jobs and the total; calls are serialized but
// arrive in completion order. Sweep-only: a single run has no
// job-level progress to report.
func WithProgress(fn func(done, total int)) Option {
	return Option{
		name:      "WithProgress",
		sweep:     func(c *SweepConfig) { c.Progress = fn },
		scopeNote: "a single run has no job-level progress to report",
	}
}

// WithFamilyBatching reorders sweep job execution so compatible jobs
// — same workload family and parameters, scheduler kind, exactness —
// run adjacently and share ChainCache entries and hot code paths.
// Results and seeds are byte-identical with batching on or off.
// Sweep-only: a single job has nothing to batch with.
func WithFamilyBatching() Option {
	return Option{
		name:      "WithFamilyBatching",
		sweep:     func(c *SweepConfig) { c.BatchFamilies = true },
		scopeNote: "a single job has nothing to batch with",
	}
}

// WithReplicaBatching runs up to width same-shape sweep points
// together in one struct-of-arrays simulator: one scheduler draw
// table and one workload state block step every replica per loop
// iteration, amortizing dispatch overhead and cache misses across the
// batch. Widths 0 and 1 select the scalar path. Every point still
// draws from its own (seed, index) stream and results are
// byte-identical to the scalar path, errors included. Points that
// cannot batch (the list, hashset and wfuniversal workloads, per-job
// hooks or recorders, a sweep recorder) run on the scalar path, which
// the sweep_batch_fallbacks counter and SweepConfig.OnBatchFallback
// report. Pair with SweepJob.Replicas to expand one shape into a seed
// group. Sweep-only: a single job has nothing to batch with.
func WithReplicaBatching(width int) Option {
	return Option{
		name:      "WithReplicaBatching",
		sweep:     func(c *SweepConfig) { c.ReplicaBatch = width },
		scopeNote: "a single job has nothing to batch with",
	}
}

// ErrSweepCanceled marks a sweep stopped by SweepConfig.Context
// before every point completed. RunSweep returns it wrapping the
// context's own error alongside the partial results; match with
// errors.Is to distinguish cancellation (partial results, non-nil
// error) from job failure (nil results, non-nil error).
var ErrSweepCanceled = sweep.ErrCanceled

// Checkpoint is the resume state a sweep consults before dispatch and
// records completed points through; see SweepConfig.Checkpoint and
// WithCheckpoint. CheckpointLog is the crash-safe file-backed
// implementation.
type Checkpoint = sweep.Checkpoint

// CheckpointLog is a file-backed Checkpoint: an append-only,
// fsync-batched log of completed points in the canonical wire
// encoding, bound to one grid and master seed by a SHA-256 header. A
// SIGKILL at any byte leaves a loadable prefix; reopening restores
// every completed point and a resumed sweep's canonical results are
// byte-identical to an uninterrupted run. Close it after RunSweep
// returns.
type CheckpointLog = checkpoint.Log

// ErrCheckpointMismatch marks an existing checkpoint file that was
// written for a different grid or master seed than the sweep being
// resumed; OpenCheckpoint refuses it rather than mixing results
// across grids. Match with errors.Is.
var ErrCheckpointMismatch = checkpoint.ErrGridMismatch

// OpenCheckpoint creates (or, when the file exists, loads and
// validates) the checkpoint for cfg's grid at path. The grid identity
// — expanded points plus master seed — must match an existing file
// exactly (ErrCheckpointMismatch otherwise). Pass the result through
// WithCheckpoint:
//
//	cp, err := pwf.OpenCheckpoint("grid.ckpt", cfg)
//	...
//	results, err := pwf.RunSweep(cfg, pwf.WithCheckpoint(cp))
//	cp.Close()
func OpenCheckpoint(path string, cfg SweepConfig) (*CheckpointLog, error) {
	return checkpoint.Open(path, cfg, checkpoint.Options{})
}

// WithCheckpoint makes the sweep resumable through cp: points the
// checkpoint already holds are restored instead of executed (replayed
// through OnResult in input order first), and every newly completed
// point is committed before its callbacks fire. Because point i
// always draws from stream (seed, i), a resumed sweep's canonical
// results are byte-identical to an uninterrupted run. Sweep-only: Run
// executes exactly one job, so there is no partial grid to resume.
func WithCheckpoint(cp Checkpoint) Option {
	return Option{
		name:      "WithCheckpoint",
		sweep:     func(c *SweepConfig) { c.Checkpoint = cp },
		scopeNote: "Run executes exactly one job, so there is no partial grid to resume",
	}
}

// NewRunConfig returns the configuration for measuring workload w with
// n processes under the defaults: uniform scheduler, DefaultSteps
// steps, DefaultWarmupFraction warmup, DefaultSeed seed. Only the
// Run-scoped part of each option applies here; sweep-only options are
// ignored (Run itself reports them as errors).
func NewRunConfig(w Workload, n int, opts ...Option) RunConfig {
	cfg := RunConfig{
		Workload:       w,
		N:              n,
		Steps:          DefaultSteps,
		WarmupFraction: DefaultWarmupFraction,
		Seed:           DefaultSeed,
		Scheduler:      UniformSpec(),
	}
	for _, opt := range opts {
		if opt.run != nil {
			opt.run(&cfg)
		}
	}
	return cfg
}

// Run measures one workload under one scheduler — the unified entry
// point replacing the Simulate* constellation. Options applied here
// override cfg:
//
//	lat, err := pwf.Run(pwf.NewRunConfig(pwf.SCUWorkload(0, 1), 16),
//	        pwf.WithSteps(2_000_000), pwf.WithSeed(7))
//
// It validates cfg (in particular WarmupFraction must lie in [0, 1))
// and runs warmup + measurement, returning the latency and fairness
// metrics.
func Run(cfg RunConfig, opts ...Option) (Latencies, error) {
	for _, opt := range opts {
		if opt.run == nil {
			return Latencies{}, fmt.Errorf("pwf: option %s does not apply to Run: %s",
				opt.name, opt.scopeNote)
		}
		opt.run(&cfg)
	}
	if err := checkRecorder(cfg.Recorder); err != nil {
		return Latencies{}, fmt.Errorf("pwf: run: %w", err)
	}
	res, err := sweep.RunJob(sweep.Job{
		Workload:       cfg.Workload,
		N:              cfg.N,
		Sched:          cfg.Scheduler,
		Steps:          cfg.Steps,
		WarmupFraction: cfg.WarmupFraction,
		Recorder:       cfg.Recorder,
	}, cfg.Seed, cfg.Cache)
	if tw, ok := cfg.Recorder.(interface{ Flush() error }); ok {
		if ferr := tw.Flush(); ferr != nil && err == nil {
			err = ferr
		}
	}
	if err != nil {
		return Latencies{}, fmt.Errorf("pwf: run: %w", err)
	}
	return res.Latencies, nil
}

// SweepJob is one point of a sweep grid.
type SweepJob = sweep.Job

// SweepResult is the structured outcome of one sweep job.
type SweepResult = sweep.Result

// SweepConfig describes a sweep: a job grid, a master seed, and
// optional worker-pool bound, chain cache, warmup override, family
// batching, progress and per-result callbacks, cancellation context,
// checkpoint, and recorder. Most fields are settable through the same
// With* options Run takes.
type SweepConfig = sweep.Config

// RunSweep executes a grid of independent jobs on a worker pool sized
// to GOMAXPROCS (or SweepConfig.Workers) and returns one result per
// job, in input order. Results are byte-identical for a given master
// seed regardless of worker count: job i draws its randomness from a
// SplitMix-derived stream (master, i). Exact-chain analyses requested
// via SweepJob.Exact are memoized in a cache shared across the sweep
// (and, by default, the process).
//
//	jobs := []pwf.SweepJob{
//	        {Workload: pwf.SCUWorkload(0, 1), N: 16, Steps: 1_000_000, Exact: true},
//	        {Workload: pwf.FetchIncWorkload(), N: 16, Steps: 1_000_000},
//	}
//	results, err := pwf.RunSweep(pwf.SweepConfig{Jobs: jobs, Seed: 1})
func RunSweep(cfg SweepConfig, opts ...Option) ([]SweepResult, error) {
	for _, opt := range opts {
		if opt.sweep == nil {
			return nil, fmt.Errorf("pwf: option %s does not apply to RunSweep: %s",
				opt.name, opt.scopeNote)
		}
		opt.sweep(&cfg)
	}
	if err := checkRecorder(cfg.Recorder); err != nil {
		return nil, fmt.Errorf("pwf: sweep: %w", err)
	}
	res, err := sweep.Run(cfg)
	if tw, ok := cfg.Recorder.(interface{ Flush() error }); ok {
		if ferr := tw.Flush(); ferr != nil && err == nil {
			err = ferr
		}
	}
	return res, err
}
