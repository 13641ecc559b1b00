// Package machine implements the discrete-time execution model of
// Section 2.1: at every time unit the scheduler picks one process,
// which performs local computation and then issues exactly one
// shared-memory step. The machine drives simulated algorithm
// instances (see package scu) against a scheduler (package sched) on
// a shared memory (package shmem), and measures the two quantities
// the paper analyses:
//
//   - system latency: expected number of system steps between two
//     consecutive completions by any process;
//   - individual latency: expected number of system steps between two
//     consecutive completions by the same process.
//
// Both are estimated two ways — as the mean of inter-completion gaps
// and as the total-steps/total-completions ratio — which agree in the
// long run; tests compare them (the "latency estimator" ablation in
// DESIGN.md).
package machine

import (
	"errors"
	"fmt"

	"pwf/internal/obs"
	"pwf/internal/sched"
	"pwf/internal/shmem"
)

// Process is one simulated algorithm instance. Each call to Step
// performs exactly one shared-memory operation on mem and reports
// whether a method invocation completed at this step. Once an
// invocation completes, the next Step implicitly begins a new one
// (every process performs an infinite sequence of operations, matching
// the analysis in Section 6).
type Process interface {
	Step(mem *shmem.Memory) (completed bool)
}

// Machine simulation errors.
var (
	ErrNoProcs        = errors.New("machine: no processes")
	ErrProcMismatch   = errors.New("machine: scheduler and process count differ")
	ErrBudgetExceeded = errors.New("machine: step budget exceeded")
	ErrNoCompletions  = errors.New("machine: no completions observed")
)

// Sim couples processes, a scheduler, and a memory, and accumulates
// latency metrics while running.
type Sim struct {
	mem   *shmem.Memory
	procs []Process
	sch   sched.Scheduler

	// Metrics is the step clock and the latency bookkeeping, as a
	// single replica: Sim's replica-free accessors below shadow the
	// embedded per-replica ones and answer for replica 0.
	Metrics

	// hook, when set, observes every completion event.
	hook func(step uint64, pid int)

	// rec, when non-nil, receives step-level telemetry events. Every
	// emission site is guarded by a nil check so the disabled layer
	// costs one predictable branch per step (see obs bench_test.go).
	rec obs.Recorder

	// Per-process telemetry state, allocated on first SetRecorder:
	// CAS attempts in the current operation, whether an operation is
	// in flight, and pending/accumulated retry bookkeeping.
	opAttempts   []uint64
	retryIter    []uint64
	inOp         []bool
	retryPending []bool

	// crashPlan holds scheduled fail-stop crashes, sorted by step.
	crashPlan []CrashPlanEntry
}

// New builds a simulator. The scheduler must govern exactly
// len(procs) processes.
func New(mem *shmem.Memory, procs []Process, sch sched.Scheduler) (*Sim, error) {
	if mem == nil {
		return nil, errors.New("machine: nil memory")
	}
	if len(procs) == 0 {
		return nil, ErrNoProcs
	}
	for i, p := range procs {
		if p == nil {
			return nil, fmt.Errorf("machine: process %d is nil", i)
		}
	}
	if sch == nil {
		return nil, errors.New("machine: nil scheduler")
	}
	if sch.N() != len(procs) {
		return nil, fmt.Errorf("%w: scheduler %d vs %d", ErrProcMismatch, sch.N(), len(procs))
	}
	return &Sim{mem: mem, procs: procs, sch: sch, Metrics: newMetrics(1, len(procs))}, nil
}

// ProcessAt returns the pid-th process, for extracting
// algorithm-specific metrics after a run.
func (s *Sim) ProcessAt(pid int) (Process, bool) {
	if pid < 0 || pid >= len(s.procs) {
		return nil, false
	}
	return s.procs[pid], true
}

// Step advances the simulation by one time unit: the scheduler picks a
// process, which takes one shared-memory step.
func (s *Sim) Step() error {
	if len(s.crashPlan) > 0 {
		if err := s.applyDueCrashes(); err != nil {
			return err
		}
	}
	pid, err := s.sch.Next()
	if err != nil {
		return fmt.Errorf("machine: schedule step %d: %w", s.steps, err)
	}
	s.steps++
	if s.rec != nil {
		return s.observedStep(pid)
	}
	if !s.procs[pid].Step(s.mem) {
		return nil
	}
	s.complete(pid)
	return nil
}

// observedStep is the traced twin of the Step hot path: it emits
// scheduling, operation-begin, retry, CAS, and completion events
// around the process step. CAS outcomes are recovered from the
// memory's operation counters — the model guarantees exactly one
// shared-memory operation per step, so the counter delta identifies
// the operation kind without touching the algorithms.
func (s *Sim) observedStep(pid int) error {
	s.rec.Record(obs.Event{Kind: obs.KindSched, Step: s.steps, PID: pid})
	if !s.inOp[pid] {
		s.inOp[pid] = true
		s.rec.Record(obs.Event{Kind: obs.KindBegin, Step: s.steps, PID: pid})
	} else if s.retryPending[pid] {
		s.retryPending[pid] = false
		s.rec.Record(obs.Event{Kind: obs.KindRetry, Step: s.steps, PID: pid, Attempts: s.retryIter[pid]})
	}

	before := s.mem.Counters()
	completed := s.procs[pid].Step(s.mem)
	after := s.mem.Counters()
	if after.CASes > before.CASes {
		ok := after.CASFailures == before.CASFailures
		s.opAttempts[pid]++
		s.rec.Record(obs.Event{Kind: obs.KindCAS, Step: s.steps, PID: pid, OK: ok})
		if !ok {
			s.retryIter[pid]++
			s.retryPending[pid] = true
		}
	}
	if completed {
		s.rec.Record(obs.Event{Kind: obs.KindComplete, Step: s.steps, PID: pid, Attempts: s.opAttempts[pid]})
		s.opAttempts[pid] = 0
		s.retryIter[pid] = 0
		s.retryPending[pid] = false
		s.inOp[pid] = false
		s.complete(pid)
	}
	return nil
}

// complete books a completion by pid at the current step and
// notifies the completion hook.
func (s *Sim) complete(pid int) {
	s.recordCompletion(0, pid)
	if s.hook != nil {
		s.hook(s.steps, pid)
	}
}

// SetCompletionHook registers fn to observe every completion event
// (system step number and completing process). Pass nil to remove the
// hook. Package progress uses this to build histories.
func (s *Sim) SetCompletionHook(fn func(step uint64, pid int)) { s.hook = fn }

// SetRecorder installs r as the step-level telemetry sink: every
// subsequent Step emits scheduling, operation-begin, CAS, retry,
// completion, and crash events to it (see package obs for the event
// schema). Passing nil or obs.Nop disables telemetry; the disabled
// hooks cost a single branch per step.
func (s *Sim) SetRecorder(r obs.Recorder) {
	if r == obs.Nop {
		r = nil
	}
	s.rec = r
	if r != nil && s.opAttempts == nil {
		n := len(s.procs)
		s.opAttempts = make([]uint64, n)
		s.retryIter = make([]uint64, n)
		s.inOp = make([]bool, n)
		s.retryPending = make([]bool, n)
	}
}

// Run advances the simulation by steps time units. When no crash is
// pending and no recorder is installed — the configuration every
// sweep job runs in — it drops into a tight loop that skips the
// per-step feature checks, so one simulated step is one scheduler
// draw, one process step, and nothing else: no allocation, no trace
// plumbing (TestRunZeroAllocs pins this).
func (s *Sim) Run(steps uint64) error {
	i := uint64(0)
	for i < steps && (len(s.crashPlan) > 0 || s.rec != nil) {
		// Slow path: crashes still pending (the plan only shrinks) or
		// telemetry enabled for the whole run.
		if err := s.Step(); err != nil {
			return err
		}
		i++
	}
	for ; i < steps; i++ {
		pid, err := s.sch.Next()
		if err != nil {
			return fmt.Errorf("machine: schedule step %d: %w", s.steps, err)
		}
		s.steps++
		if s.procs[pid].Step(s.mem) {
			// complete, inlined by hand: the extra call costs a few
			// percent of a step here.
			s.recordCompletion(0, pid)
			if s.hook != nil {
				s.hook(s.steps, pid)
			}
		}
	}
	return nil
}

// RunUntilCompletions runs until the total number of completions since
// construction reaches target, or fails with ErrBudgetExceeded after
// maxSteps further steps.
func (s *Sim) RunUntilCompletions(target, maxSteps uint64) error {
	budget := maxSteps
	for s.TotalCompletions() < target {
		if budget == 0 {
			return fmt.Errorf("%w: %d completions after %d steps, want %d",
				ErrBudgetExceeded, s.TotalCompletions(), maxSteps, target)
		}
		budget--
		if err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Completions returns a copy of the per-process completion counts.
func (s *Sim) Completions() []uint64 { return s.Metrics.Completions(0) }

// TotalCompletions returns the total number of completed invocations.
func (s *Sim) TotalCompletions() uint64 { return s.Metrics.TotalCompletions(0) }

// SystemLatency returns the mean number of system steps between
// consecutive completions (gap estimator), an error if fewer than two
// completions were observed in the metrics window.
func (s *Sim) SystemLatency() (float64, error) { return s.Metrics.SystemLatency(0) }

// SystemLatencyRatio returns steps/completions over the metrics
// window (ratio estimator).
func (s *Sim) SystemLatencyRatio() (float64, error) { return s.Metrics.SystemLatencyRatio(0) }

// IndividualLatency returns the mean number of system steps between
// consecutive completions by process pid (gap estimator).
func (s *Sim) IndividualLatency(pid int) (float64, error) { return s.Metrics.IndividualLatency(0, pid) }

// MeanIndividualLatency averages the individual latency across all
// processes that completed at least two invocations; it returns an
// error if no process did.
func (s *Sim) MeanIndividualLatency() (float64, error) { return s.Metrics.MeanIndividualLatency(0) }

// MaxIndividualGap returns the largest observed inter-completion gap
// for pid (in system steps) within the metrics window; used as the
// starvation witness in E9.
func (s *Sim) MaxIndividualGap(pid int) (uint64, error) { return s.Metrics.MaxIndividualGap(0, pid) }

// CompletionRate returns completions per system step over the metrics
// window — the quantity plotted in Figure 5 (the inverse of system
// latency).
func (s *Sim) CompletionRate() float64 { return s.Metrics.CompletionRate(0) }

// StarvedProcesses returns the ids of processes with zero completions
// so far; with enough steps under a stochastic scheduler this should
// be empty for bounded lock-free algorithms (Theorem 3), and non-empty
// for Algorithm 1 (Lemma 2).
func (s *Sim) StarvedProcesses() []int { return s.Metrics.StarvedProcesses(0) }

// FairnessIndex returns Jain's fairness index of the per-process
// completion counts: (Σx)² / (n·Σx²), which is 1 for perfectly equal
// progress and 1/n when one process monopolises completions.
func (s *Sim) FairnessIndex() float64 { return s.Metrics.FairnessIndex(0) }
