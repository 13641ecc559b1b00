// Package sweep is the parallel experiment engine: it executes a
// declarative grid of independent simulation jobs — algorithm family,
// process count, scheduler, steps, warmup — on a worker pool, with
// per-job deterministic seed derivation and a shared memoization cache
// for the exact Markov-chain analyses that figure drivers pair with
// every simulated point.
//
// Determinism is the design center. Each job draws its scheduler
// randomness from an rng stream derived purely from (master seed, job
// index), so a sweep's results are byte-identical whether it runs on
// one worker or sixteen, and regardless of completion order. Results
// are returned in input order.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"pwf/internal/machine"
	"pwf/internal/obs"
	"pwf/internal/rng"
)

// Latencies aggregates the measurements of one simulation run. It is
// re-exported as pwf.Latencies.
type Latencies struct {
	// System is the expected number of system steps between two
	// completions by anyone (the paper's system latency W).
	System float64 `json:"system"`
	// Individual is the mean over processes of the expected number of
	// system steps between two completions by the same process (W_i).
	Individual float64 `json:"individual"`
	// CompletionRate is completions per system step (Figure 5's
	// y-axis; ≈ 1/System).
	CompletionRate float64 `json:"completion_rate"`
	// Fairness is Jain's fairness index of per-process completion
	// counts (1 = perfectly fair).
	Fairness float64 `json:"fairness"`
	// Completions is the total number of completed operations in the
	// measurement window.
	Completions uint64 `json:"completions"`
}

// Job is one point of a sweep grid.
type Job struct {
	// Workload selects and parameterizes the simulated algorithm.
	Workload Workload `json:"workload"`
	// N is the number of processes.
	N int `json:"n"`
	// Sched selects the scheduler; the zero value is uniform.
	Sched SchedulerSpec `json:"sched"`
	// Steps is the length of the measurement window in system steps.
	Steps uint64 `json:"steps"`
	// WarmupFraction is the warmup run before the measurement window,
	// as a fraction of Steps in [0, 1). The zero value means no
	// warmup; use DefaultWarmupFraction for the conventional 10%.
	WarmupFraction float64 `json:"warmup_fraction"`
	// Crash fail-stops the highest-id Crash processes before the run;
	// every scheduler but the adversary supports crashes.
	Crash int `json:"crash,omitempty"`
	// Exact requests the exact-chain system latency alongside the
	// simulation, where a chain family exists (SCU, FetchInc,
	// Parallel) and is tractable.
	Exact bool `json:"exact,omitempty"`
	// Replicas expands the job into a seed group: the sweep runs
	// Replicas points of this exact shape (0 and 1 both mean one
	// point), each with its own derived seed and its own Result.
	// Expansion happens before seed derivation, so a job with
	// Replicas = r occupies r consecutive point indices and shifts
	// the seeds of all later jobs; it is part of the grid's identity,
	// not an execution hint. Same-shape points coalesce into replica
	// batches when Config.ReplicaBatch allows.
	Replicas int `json:"replicas,omitempty"`
	// Label is carried through to the result for presentation.
	Label string `json:"label,omitempty"`

	// CompletionHook, when non-nil, observes every completion
	// (including warmup) as (step, pid). Hooks run on the worker
	// executing the job; they must not share mutable state with other
	// jobs' hooks unless synchronized.
	CompletionHook func(step uint64, pid int) `json:"-"`

	// Recorder, when non-nil, receives the job's step-level telemetry
	// events (package obs): scheduling decisions, CAS outcomes,
	// retries, operation boundaries, crash injections. Inside a sweep
	// the recorder is shared across workers, so it must be safe for
	// concurrent use (obs.TraceRecorder and obs.Metrics are).
	Recorder obs.Recorder `json:"-"`
}

// DefaultWarmupFraction is the conventional warmup used by the paper
// reproduction drivers: 10% of the measurement window.
const DefaultWarmupFraction = 0.1

// Validate reports whether the job is well-formed.
func (j Job) Validate() error {
	if err := j.Workload.Validate(j.N); err != nil {
		return err
	}
	if err := j.Sched.Validate(j.N); err != nil {
		return err
	}
	if j.Steps == 0 {
		return errors.New("sweep: job needs Steps >= 1")
	}
	if j.WarmupFraction < 0 || j.WarmupFraction >= 1 ||
		math.IsNaN(j.WarmupFraction) {
		return fmt.Errorf("sweep: warmup fraction %v out of [0, 1)", j.WarmupFraction)
	}
	if j.Crash < 0 || j.Crash >= j.N {
		return fmt.Errorf("sweep: cannot crash %d of %d processes", j.Crash, j.N)
	}
	if j.Crash > 0 && j.Sched.Kind == SchedAdversary {
		return fmt.Errorf("sweep: scheduler %q does not support crashes", j.Sched)
	}
	if j.Replicas < 0 {
		return fmt.Errorf("sweep: negative replica count %d", j.Replicas)
	}
	return nil
}

// Result is the structured outcome of one job, in input order.
type Result struct {
	// Index is the job's position in Config.Jobs.
	Index int `json:"index"`
	// Label echoes Job.Label.
	Label string `json:"label,omitempty"`
	// Job echoes the executed job.
	Job Job `json:"job"`
	// Seed is the derived rng seed the job's scheduler drew from.
	Seed uint64 `json:"seed"`
	// Latencies are the measured latency and fairness metrics.
	Latencies Latencies `json:"latencies"`
	// ProcCompletions is the per-process completion count over the
	// measurement window.
	ProcCompletions []uint64 `json:"proc_completions,omitempty"`
	// Starved lists processes with zero completions.
	Starved []int `json:"starved,omitempty"`
	// Theta is the scheduler's stochasticity threshold θ.
	Theta float64 `json:"theta"`
	// Exact is the exact-chain system latency; valid only when
	// ExactOK. Requested via Job.Exact, unavailable when no chain
	// family matches or the state space is intractable.
	Exact float64 `json:"exact,omitempty"`
	// ExactOK reports whether Exact is valid.
	ExactOK bool `json:"exact_ok,omitempty"`
	// Elapsed is the job's wall time (not deterministic).
	Elapsed time.Duration `json:"elapsed_ns"`
}

// ErrCanceled marks a sweep stopped by Config.Context before every
// point completed. Run returns it (wrapping the context's own error,
// so errors.Is matches both) alongside the partial results. Match with
// errors.Is to distinguish cancellation from job failure, which
// returns nil results.
var ErrCanceled = errors.New("sweep: canceled")

// Checkpoint is the crash-safe resume state of a sweep: Run consults
// it once per point before dispatch and records every newly completed
// point through it. Implementations must be safe for concurrent Commit
// calls from multiple workers. The file-backed implementation — an
// append-only log under a header binding the grid hash and master
// seed — lives in internal/checkpoint; binding checkpoints to the
// right grid is the opener's job, not Run's.
type Checkpoint interface {
	// Restore returns the completed result for point index i, if the
	// checkpoint holds one. Restored points are not re-executed and
	// not re-committed.
	Restore(i int) (Result, bool)
	// Commit durably records one newly completed point. An error fails
	// the sweep: a run that cannot record its progress must not
	// pretend to be resumable.
	Commit(Result) error
}

// Config describes a sweep.
type Config struct {
	// Jobs is the grid, executed logically in order; results are
	// aggregated in input order.
	Jobs []Job
	// Seed is the master seed. Job i draws from rng.Stream(Seed, i).
	Seed uint64
	// Workers bounds the worker pool; 0 selects GOMAXPROCS.
	Workers int
	// Cache memoizes exact-chain constructions; nil selects the
	// process-wide DefaultCache.
	Cache *ChainCache
	// Warmup, when non-nil, overrides every job's WarmupFraction —
	// the sweep-level counterpart of pwf.WithWarmupFraction. It must
	// lie in [0, 1).
	Warmup *float64
	// BatchFamilies reorders job *execution* (never results or seeds)
	// so jobs of the same family — workload parameters, process and
	// crash counts, full scheduler spec, exactness — run adjacently:
	// compatible jobs share ChainCache entries and hot code paths.
	// Because job i always draws from rng.Stream(Seed, i), results
	// are byte-identical with batching on or off.
	BatchFamilies bool
	// ReplicaBatch enables the replica-batched simulator core: up to
	// ReplicaBatch same-shape points (identical job apart from Label,
	// adjacent after family ordering, which ReplicaBatch implies)
	// execute together in one struct-of-arrays BatchSim, one
	// scheduler draw table and one workload state block stepping all
	// replicas per loop iteration. 0 and 1 select the scalar path.
	// Every point still draws from rng.Stream(Seed, i) and batched
	// results are byte-identical to the scalar path, errors included.
	// Points that cannot batch (a workload without a batched form, a
	// per-job hook or recorder, a sweep recorder) run on the scalar
	// path, as OnBatchFallback reports; a batch that fails to build
	// fails its points with the construction error.
	ReplicaBatch int
	// Progress, when non-nil, is called after each job completes with
	// the number of completed jobs and the total. Calls are serialized
	// but may come from any worker, in completion order.
	Progress func(done, total int)
	// OnResult, when non-nil, observes each successful job result as
	// it completes — the streaming counterpart of the returned slice.
	// Calls are serialized but arrive in completion order, not input
	// order; use Result.Index to reorder.
	OnResult func(Result)
	// Context, when non-nil, cancels the sweep at the next dispatch
	// boundary: no further point groups start, groups already handed
	// to a worker run to completion (at most one per worker), and Run
	// returns ErrCanceled wrapping the context's error alongside the
	// partial results (completed entries keep their values; unstarted
	// ones are zero). Cancellation is only observed while points
	// remain to dispatch: a sweep whose every point was already handed
	// out completes normally and returns nil.
	Context context.Context
	// Checkpoint, when non-nil, makes the sweep resumable: points the
	// checkpoint already holds are restored instead of executed —
	// replayed through OnResult in input order before any new
	// execution, counted as done by the first Progress call — and each
	// newly completed point is committed before its callbacks fire.
	// Because point i always draws from rng.Stream(Seed, i), a resumed
	// sweep's results are byte-identical (in canonical encoding, which
	// excludes wall time) to an uninterrupted run of the same grid.
	Checkpoint Checkpoint
	// Recorder, when non-nil, receives per-job lifecycle events
	// (obs.KindJobStart/KindJobEnd) and the step-level telemetry of
	// every job that does not set its own Job.Recorder. It must be
	// safe for concurrent use; events from concurrently executing jobs
	// interleave.
	Recorder obs.Recorder
	// Registry receives the sweep's execution-path counters when
	// ReplicaBatch > 1: sweep_batch_jobs counts points executed on the
	// replica-batched path, sweep_batch_fallbacks points that fell back
	// to scalar execution despite batching being requested. Nil selects
	// obs.Default.
	Registry *obs.Registry
	// OnBatchFallback, when non-nil and ReplicaBatch > 1, is called at
	// most once per distinct reason when points fall back to scalar
	// execution — a workload without a batched form, a per-job hook or
	// recorder, or a sweep recorder. Calls are serialized but may come
	// from any worker.
	OnBatchFallback func(reason string)
}

// job returns job i with sweep-level overrides applied.
func (cfg *Config) job(i int) Job {
	job := cfg.Jobs[i]
	if cfg.Warmup != nil {
		job.WarmupFraction = *cfg.Warmup
	}
	return job
}

// expandPoints flattens the grid into points: job i with overrides
// applied, repeated max(1, Replicas) times. Point p draws its seed
// from rng.Stream(Seed, p), so the expansion — not the execution
// mode — defines the grid's seed layout.
func expandPoints(cfg Config) []Job {
	points := make([]Job, 0, len(cfg.Jobs))
	for i := range cfg.Jobs {
		job := cfg.job(i)
		reps := job.Replicas
		if reps < 1 {
			reps = 1
		}
		for c := 0; c < reps; c++ {
			points = append(points, job)
		}
	}
	return points
}

// Points returns the expanded point list of a configuration — job i
// with sweep-level overrides applied, repeated max(1, Replicas) times.
// This layout is the grid's identity: point p draws its seed from
// rng.Stream(Seed, p) and checkpoint records are keyed by point
// index, so the checkpoint layer binds resume state to a hash of
// exactly this expansion.
func Points(cfg Config) []Job { return expandPoints(cfg) }

// FamilyKey renders everything that determines which code paths and
// ChainCache entries a job exercises: the full workload and scheduler
// parameterization (not just the kinds — two weighted schedulers with
// different weight vectors are different families), the process and
// crash counts, and exactness. Jobs with equal keys form one family:
// Config.BatchFamilies runs them adjacently, and pwfserve counts the
// jobs that share a family as coalesced.
func FamilyKey(j Job) string {
	return fmt.Sprintf("%s|q%d|s%d|w%d|p%d|n%d|c%d|x%t|%s",
		j.Workload.Kind, j.Workload.Q, j.Workload.S, j.Workload.WaitFactor,
		j.Workload.PoolSize, j.N, j.Crash, j.Exact, j.Sched)
}

// shapeKey extends FamilyKey with the run length: points with equal
// shape keys are identical jobs apart from Label and can share one
// lockstep replica batch.
func shapeKey(j Job) string {
	return fmt.Sprintf("%s|t%d|f%g", FamilyKey(j), j.Steps, j.WarmupFraction)
}

// dispatchGroups returns the units of work handed to workers: point
// index groups, each either a singleton (scalar execution) or a run
// of same-shape batchable points (one BatchSim). Points marked in
// skip (checkpoint-restored; nil means none) are not dispatched at
// all. With BatchFamilies or ReplicaBatch the order groups
// same-family points adjacently (stable, so relative input order is
// kept); otherwise input order.
func dispatchGroups(cfg Config, points []Job, skip []bool) [][]int {
	order := make([]int, 0, len(points))
	for i := range points {
		if skip == nil || !skip[i] {
			order = append(order, i)
		}
	}
	width := cfg.ReplicaBatch
	var keys []string
	if cfg.BatchFamilies || width > 1 {
		keys = make([]string, len(points))
		for i := range points {
			keys[i] = shapeKey(points[i])
		}
		sort.SliceStable(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	}
	groups := make([][]int, 0, len(order))
	for start := 0; start < len(order); {
		end := start + 1
		if width > 1 && batchable(cfg, points[order[start]]) {
			key := keys[order[start]]
			for end < len(order) && end-start < width &&
				batchable(cfg, points[order[end]]) &&
				keys[order[end]] == key {
				end++
			}
		}
		groups = append(groups, order[start:end])
		start = end
	}
	return groups
}

// cbQueue serializes user callbacks without ever holding the sweep's
// bookkeeping mutex around them: workers enqueue closures (cheap, under
// the queue's own lock) and exactly one worker at a time drains the
// queue. A callback that blocks — say, OnResult streaming to a stalled
// client — stalls only the draining worker's progress through *this*
// queue; done accounting and the other queue keep flowing.
type cbQueue struct {
	mu       sync.Mutex
	pending  []func()
	draining bool
}

func (q *cbQueue) enqueue(fn func()) {
	q.mu.Lock()
	q.pending = append(q.pending, fn)
	q.mu.Unlock()
}

func (q *cbQueue) drain() {
	q.mu.Lock()
	if q.draining {
		q.mu.Unlock()
		return
	}
	q.draining = true
	for len(q.pending) > 0 {
		fn := q.pending[0]
		q.pending = q.pending[1:]
		q.mu.Unlock()
		q.call(fn)
		q.mu.Lock()
	}
	q.draining = false
	q.mu.Unlock()
}

// call invokes one callback. A panicking callback must not leave the
// queue marked draining — that would silently swallow every later
// callback — so the panic is caught, the drain lock released, and the
// panic re-raised to the calling worker. Callbacks still queued when a
// callback panics are delivered by the next drain (normally the next
// point's finish); the panic itself propagates out of Run's worker
// unless the caller recovers it.
func (q *cbQueue) call(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			q.mu.Lock()
			q.draining = false
			q.mu.Unlock()
			panic(r)
		}
	}()
	fn()
}

// Run executes the sweep and returns one result per point — one per
// job, times its Replicas expansion — in input order. The first point
// error aborts the sweep (workers finish their in-flight work) and is
// returned wrapped with the point index.
func Run(cfg Config) ([]Result, error) {
	if len(cfg.Jobs) == 0 {
		return nil, errors.New("sweep: no jobs")
	}
	if cfg.Warmup != nil {
		if f := *cfg.Warmup; f < 0 || f >= 1 || math.IsNaN(f) {
			return nil, fmt.Errorf("sweep: warmup fraction %v out of [0, 1)", f)
		}
	}
	if cfg.ReplicaBatch < 0 {
		return nil, fmt.Errorf("sweep: negative replica batch width %d", cfg.ReplicaBatch)
	}
	for i := range cfg.Jobs {
		if err := cfg.job(i).Validate(); err != nil {
			return nil, fmt.Errorf("job %d: %w", i, err)
		}
	}
	points := expandPoints(cfg)
	total := len(points)
	var ctxDone <-chan struct{}
	if cfg.Context != nil {
		ctxDone = cfg.Context.Done()
	}

	results := make([]Result, total)
	errs := make([]error, total)

	// Restore checkpointed points before anything executes: they keep
	// their recorded values, skip dispatch entirely, replay through
	// OnResult in input order (so a streaming consumer sees the full
	// stream exactly once), and count as done for Progress.
	var restored []bool
	nrestored := 0
	if cfg.Checkpoint != nil {
		restored = make([]bool, total)
		for i := range points {
			res, ok := cfg.Checkpoint.Restore(i)
			if !ok {
				continue
			}
			res.Index = i
			results[i] = res
			restored[i] = true
			nrestored++
		}
		if cfg.OnResult != nil {
			for i := range points {
				if restored[i] {
					cfg.OnResult(results[i])
				}
			}
		}
		if cfg.Progress != nil && nrestored > 0 {
			cfg.Progress(nrestored, total)
		}
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total-nrestored {
		workers = total - nrestored
	}

	var (
		mu   sync.Mutex
		done = nrestored
		fail bool

		resultQ, progressQ cbQueue
	)
	// Batch-path observability: counters for points that ran batched vs
	// fell back to scalar, and a per-reason once-only fallback callback.
	// Lone batchable points (nothing same-shaped to coalesce with) count
	// as neither — batching was not applicable, not bypassed.
	var (
		batchJobs, batchFallbacks *obs.Counter
		noteFallback              func(reason string)
	)
	if cfg.ReplicaBatch > 1 {
		reg := cfg.Registry
		if reg == nil {
			reg = obs.Default
		}
		batchJobs = reg.Counter("sweep_batch_jobs")
		batchFallbacks = reg.Counter("sweep_batch_fallbacks")
		var fmu sync.Mutex
		seen := make(map[string]bool)
		noteFallback = func(reason string) {
			fmu.Lock()
			defer fmu.Unlock()
			if seen[reason] {
				return
			}
			seen[reason] = true
			if cfg.OnBatchFallback != nil {
				cfg.OnBatchFallback(reason)
			}
		}
	}
	// finish publishes one point's outcome: the checkpoint commit
	// first (a completed point that cannot be recorded fails, not
	// lies), bookkeeping under mu, callbacks through their queues
	// (never under mu — see cbQueue).
	finish := func(i int, res Result, err error) {
		if err == nil && cfg.Checkpoint != nil {
			if cerr := cfg.Checkpoint.Commit(res); cerr != nil {
				err = fmt.Errorf("checkpoint commit: %w", cerr)
			}
		}
		results[i], errs[i] = res, err
		mu.Lock()
		done++
		d := done
		if err != nil {
			fail = true
		}
		if err == nil && cfg.OnResult != nil {
			resultQ.enqueue(func() { cfg.OnResult(res) })
		}
		if cfg.Progress != nil {
			progressQ.enqueue(func() { cfg.Progress(d, total) })
		}
		mu.Unlock()
		resultQ.drain()
		progressQ.drain()
	}
	runScalar := func(i int) {
		job := points[i]
		if job.Recorder == nil {
			job.Recorder = cfg.Recorder
		}
		if cfg.Recorder != nil {
			cfg.Recorder.Record(obs.Event{Kind: obs.KindJobStart, Job: i, Label: job.Label})
		}
		res, err := RunJob(job, rng.Stream(cfg.Seed, uint64(i)), cfg.Cache)
		res.Index = i
		if cfg.Recorder != nil {
			cfg.Recorder.Record(obs.Event{
				Kind: obs.KindJobEnd, Job: i, Label: job.Label,
				ElapsedNS: res.Elapsed.Nanoseconds(),
			})
		}
		finish(i, res, err)
	}
	idx := make(chan []int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for grp := range idx {
				if len(grp) == 1 {
					if batchFallbacks != nil {
						if reason := batchFallbackReason(cfg, points[grp[0]]); reason != "" {
							batchFallbacks.Inc()
							noteFallback(reason)
						}
					}
					runScalar(grp[0])
					continue
				}
				jobs := make([]Job, len(grp))
				seeds := make([]uint64, len(grp))
				for r, i := range grp {
					jobs[r] = points[i]
					seeds[r] = rng.Stream(cfg.Seed, uint64(i))
				}
				batchRes, batchErrs, err := runJobBatch(jobs, seeds, cfg.Cache)
				if err != nil {
					for _, i := range grp {
						finish(i, Result{}, err)
					}
					continue
				}
				if batchJobs != nil {
					batchJobs.Add(uint64(len(grp)))
				}
				for r, i := range grp {
					batchRes[r].Index = i
					finish(i, batchRes[r], batchErrs[r])
				}
			}
		}()
	}
	canceled := false
feed:
	for _, grp := range dispatchGroups(cfg, points, restored) {
		select {
		case idx <- grp:
		case <-ctxDone:
			canceled = true
			break feed
		}
		mu.Lock()
		stop := fail
		mu.Unlock()
		if stop {
			break
		}
	}
	close(idx)
	wg.Wait()
	if canceled {
		return results, fmt.Errorf("%w: %w", ErrCanceled, cfg.Context.Err())
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sweep: job %d (%s): %w", i, describe(points[i]), err)
		}
	}
	return results, nil
}

// RunJob executes a single job with an explicit scheduler seed, no
// stream derivation, and returns its result with Index 0. It is the
// single-run primitive behind pwf.Run.
func RunJob(job Job, seed uint64, cache *ChainCache) (Result, error) {
	if err := job.Validate(); err != nil {
		return Result{}, err
	}
	began := time.Now()

	scheduler, err := job.Sched.build(job.N, seed)
	if err != nil {
		return Result{}, err
	}
	if err := crashTail(job, scheduler); err != nil {
		return Result{}, err
	}
	b, err := job.Workload.build(job.N)
	if err != nil {
		return Result{}, err
	}
	sim, err := machine.New(b.mem, b.procs, scheduler)
	if err != nil {
		return Result{}, err
	}
	sim.SetCompletionHook(job.CompletionHook)
	sim.SetRecorder(job.Recorder)
	if err := runWindow(sim, job); err != nil {
		return Result{}, err
	}

	res, err := collect(job, seed, scheduler.Threshold(), &sim.Metrics, 0, b.check)
	if err != nil {
		return Result{}, err
	}
	if job.Exact {
		res.Exact, res.ExactOK = exactLatency(job, cache)
	}
	res.Elapsed = time.Since(began)
	return res, nil
}

// crashTail fail-stops the job's highest-id Crash processes before
// step 1 through the scheduler's Crash method — a sched.Crasher or a
// sched.BatchCrasher, which crashes the pid in every replica.
func crashTail(job Job, scheduler any) error {
	if job.Crash == 0 {
		return nil
	}
	crasher, ok := scheduler.(interface{ Crash(pid int) error })
	if !ok {
		return fmt.Errorf("sweep: scheduler %q does not support crashes", job.Sched)
	}
	for pid := job.N - job.Crash; pid < job.N; pid++ {
		if err := crasher.Crash(pid); err != nil {
			return fmt.Errorf("sweep: crash process %d: %w", pid, err)
		}
		if job.Recorder != nil {
			job.Recorder.Record(obs.Event{Kind: obs.KindCrash, Step: 0, PID: pid})
		}
	}
	return nil
}

// runWindow runs the job's warmup, discards its metrics, and runs the
// measurement window, on a machine.Sim or a machine.BatchSim.
func runWindow(sim interface {
	Run(steps uint64) error
	ResetMetrics()
}, job Job) error {
	if warmup := uint64(job.WarmupFraction * float64(job.Steps)); warmup > 0 {
		if err := sim.Run(warmup); err != nil {
			return err
		}
	}
	sim.ResetMetrics()
	return sim.Run(job.Steps)
}

// collect assembles replica r's Result from a finished run: the
// latencies, the per-process counts, then the post-run invariant check
// (nil for none), whose failure yields a zero Result. RunJob and
// runJobBatch both build their points here.
func collect(job Job, seed uint64, theta float64, m *machine.Metrics, r int, check func() error) (Result, error) {
	res := Result{Label: job.Label, Job: job, Seed: seed, Theta: theta}
	lat := &res.Latencies
	var err error
	if lat.System, err = m.SystemLatency(r); err != nil {
		return Result{}, err
	}
	if lat.Individual, err = m.MeanIndividualLatency(r); err != nil {
		return Result{}, err
	}
	lat.CompletionRate = m.CompletionRate(r)
	lat.Fairness = m.FairnessIndex(r)
	lat.Completions = m.TotalCompletions(r)
	res.ProcCompletions = m.Completions(r)
	res.Starved = m.StarvedProcesses(r)
	if check != nil {
		if err := check(); err != nil {
			return Result{}, err
		}
	}
	return res, nil
}

// exactLatency computes the exact-chain system latency for the job's
// workload through the cache. A missing chain family or an intractable
// state space yields ok = false, not an error: sweeps routinely mix
// tractable and intractable points.
func exactLatency(job Job, cache *ChainCache) (w float64, ok bool) {
	if cache == nil {
		cache = DefaultCache
	}
	var (
		a   interface{ SystemLatency() (float64, error) }
		err error
	)
	switch job.Workload.Kind {
	case SCU:
		if job.Workload.Q == 0 && job.Workload.S == 1 {
			a, err = cache.SCUSystem(job.N)
		} else {
			a, err = cache.SCUSystemQS(job.N, job.Workload.Q, job.Workload.S)
		}
	case FetchInc:
		a, err = cache.FetchIncGlobal(job.N)
	case Parallel:
		a, err = cache.ParallelSystem(job.N, job.Workload.Q)
	default:
		return 0, false
	}
	if err != nil {
		return 0, false
	}
	w, err = a.SystemLatency()
	return w, err == nil
}

// describe renders a job compactly for error messages.
func describe(job Job) string {
	return fmt.Sprintf("%s n=%d sched=%s steps=%d", job.Workload.Kind, job.N, job.Sched, job.Steps)
}
