package sweep

import (
	"fmt"
	"time"

	"pwf/internal/machine"
	"pwf/internal/sched"
	"pwf/internal/scu"
)

// batchForms builds each batchable workload's struct-of-arrays group
// for k replicas of n processes, with the same defaults as
// Workload.build. It is the one list of batchable kinds: a kind runs
// replica-batched exactly when it has an entry here.
var batchForms = map[WorkloadKind]func(w Workload, k, n int) (machine.BatchGroup, error){
	SCU: func(w Workload, k, n int) (machine.BatchGroup, error) {
		return scu.NewSCUBatch(k, n, w.Q, w.S)
	},
	Parallel: func(w Workload, k, n int) (machine.BatchGroup, error) {
		return scu.NewParallelBatch(k, n, w.Q)
	},
	FetchInc: func(w Workload, k, n int) (machine.BatchGroup, error) {
		return scu.NewFetchIncBatch(k, n)
	},
	Unbounded: func(w Workload, k, n int) (machine.BatchGroup, error) {
		return scu.NewUnboundedBatch(k, n, w.WaitFactor)
	},
	Stack: func(w Workload, k, n int) (machine.BatchGroup, error) {
		return scu.NewStackBatch(k, n, w.pool())
	},
	Queue: func(w Workload, k, n int) (machine.BatchGroup, error) {
		return scu.NewQueueBatch(k, n, w.pool())
	},
	RCU: func(w Workload, k, n int) (machine.BatchGroup, error) {
		return scu.NewRCUBatch(k, n, rcuReaders(n), w.pool())
	},
	LFUniversal: func(w Workload, k, n int) (machine.BatchGroup, error) {
		return scu.NewLFUniversalBatch(scu.CounterObject{}, k, n, incrementBy1)
	},
}

// batchable reports whether a point can run on the replica-batched
// path: the workload has a struct-of-arrays form and nothing wants to
// observe individual steps or completions.
func batchable(cfg Config, job Job) bool {
	return batchFallbackReason(cfg, job) == ""
}

// batchFallbackReason explains why a point cannot run on the
// replica-batched path, or returns "" when it can. The reasons are
// surfaced through Config.OnBatchFallback so users learn when replica
// batching silently did nothing.
func batchFallbackReason(cfg Config, job Job) string {
	switch {
	case batchForms[job.Workload.Kind] == nil:
		return fmt.Sprintf("workload %q has no batched form", job.Workload.Kind)
	case job.CompletionHook != nil:
		return "job has a per-job completion hook"
	case job.Recorder != nil:
		return "job has a per-job recorder"
	case cfg.Recorder != nil:
		return "sweep has a recorder observing step-level telemetry"
	}
	return ""
}

// buildBatchDrawer constructs the batched scheduler for n processes
// and one rng stream per replica, with the same defaults as
// SchedulerSpec.build.
func buildBatchDrawer(s SchedulerSpec, n int, seeds []uint64) (sched.BatchDrawer, error) {
	switch s.Kind {
	case "", SchedUniform:
		return sched.NewUniformBatch(n, seeds)
	case SchedRoundRobin:
		return sched.NewRoundRobinBatch(n, len(seeds))
	case SchedSticky:
		return sched.NewStickyBatch(n, s.Rho, seeds)
	case SchedLottery:
		return sched.NewLotteryBatch(orOnes(s.Tickets, n), seeds)
	case SchedWeighted:
		return sched.NewWeightedBatch(orOnes(s.Weights, n), seeds)
	case SchedPhased:
		return sched.NewPhasedBatch(n, s.phases(), seeds)
	case SchedAdversary:
		return sched.NewAdversarialBatch(n, len(seeds), sched.SingleOut(s.Victim))
	default:
		return nil, fmt.Errorf("sweep: unknown scheduler kind %q", s.Kind)
	}
}

// runJobBatch executes len(seeds) same-shape batchable points (jobs[r]
// differs from jobs[0] at most in Label) in one lockstep BatchSim. It
// returns one Result and one error slot per replica; the third return
// value is a batch-level construction failure, after which nothing
// ran.
//
// Replica r evolves exactly as RunJob(jobs[r], seeds[r], cache): the
// scheduler draws replica r's stream through the same sampling
// structures, the workload transitions through the same states, and
// the Metrics block and collect assemble the Result the same way — so
// each Result is byte-identical to the scalar path's, except Elapsed
// (wall time, never deterministic), which reports the per-replica share
// of the batch.
func runJobBatch(jobs []Job, seeds []uint64, cache *ChainCache) ([]Result, []error, error) {
	if len(jobs) == 0 || len(jobs) != len(seeds) {
		return nil, nil, fmt.Errorf("sweep: batch of %d jobs with %d seeds", len(jobs), len(seeds))
	}
	job := jobs[0]
	if err := job.Validate(); err != nil {
		return nil, nil, err
	}
	k := len(seeds)
	began := time.Now()

	drawer, err := buildBatchDrawer(job.Sched, job.N, seeds)
	if err != nil {
		return nil, nil, err
	}
	if err := crashTail(job, drawer); err != nil {
		return nil, nil, err
	}
	group, err := batchForms[job.Workload.Kind](job.Workload, k, job.N)
	if err != nil {
		return nil, nil, err
	}
	sim, err := machine.NewBatchSim(group, drawer)
	if err != nil {
		return nil, nil, err
	}
	if err := runWindow(sim, job); err != nil {
		return nil, nil, err
	}

	var exact float64
	exactOK := false
	if job.Exact {
		exact, exactOK = exactLatency(job, cache)
	}
	chk, _ := group.(machine.BatchChecker)
	share := time.Since(began) / time.Duration(k)
	results := make([]Result, k)
	errs := make([]error, k)
	for r := range results {
		var check func() error
		if chk != nil {
			check = func() error { return chk.CheckReplica(r) }
		}
		res, err := collect(jobs[r], seeds[r], drawer.Threshold(), &sim.Metrics, r, check)
		if err != nil {
			errs[r] = err
			continue
		}
		res.Exact, res.ExactOK = exact, exactOK
		res.Elapsed = share
		results[r] = res
	}
	return results, errs, nil
}
