package machine

import (
	"errors"
	"fmt"

	"pwf/internal/sched"
)

// Replica-batched simulation: BatchSim steps K independent replicas
// of one job shape per loop iteration. Each replica has its own rng
// stream (inside the sched.BatchDrawer), its own registers and
// algorithm state (inside the BatchGroup), and its own lane of the
// Metrics block, all laid out contiguously in struct-of-arrays
// form so the per-step dispatch overhead — interface calls, feature
// checks, loop bookkeeping — amortizes across the batch and the hot
// state stays cache-resident.
//
// Determinism contract: replica r of a BatchSim evolves exactly as a
// scalar Sim over the same processes, scheduler seed, and pre-run
// crashes — the same schedule, the same completions at the same
// steps, and bit-identical latency statistics, because both simulators
// embed the one Metrics block, Sim as its single replica. Batched
// execution is a pure layout optimization.

// BatchGroup is a workload's struct-of-arrays process group: the
// state of K replicas × N processes, steppable with one call per
// batch instead of one interface dispatch per process step.
// Implementations live beside their scalar forms in package scu.
type BatchGroup interface {
	// StepBatch performs, for every replica r, one shared-memory step
	// of process pids[r] in replica r's memory, recording in done[r]
	// whether an operation completed. len(pids) == len(done) == K().
	StepBatch(pids []int32, done []bool)
	// K returns the replica count.
	K() int
	// N returns the number of processes per replica.
	N() int
}

// BatchChecker is implemented by batch groups that carry post-run
// invariant checks — linearizability witnesses, pool-exhaustion
// errors — mirroring the scalar workloads' check functions.
// CheckReplica(r) returns the error replica r's scalar counterpart
// would have reported after the same run, or nil.
type BatchChecker interface {
	CheckReplica(r int) error
}

// BatchSim errors.
var (
	ErrBatchMismatch = errors.New("machine: batch group and drawer disagree on shape")
	ErrBadReplica    = errors.New("machine: replica index out of range")
)

// BatchSim couples a batched process group with a batched scheduler
// and accumulates per-replica latency metrics while running. All
// replicas advance in lockstep; Steps() is the per-replica step
// count.
type BatchSim struct {
	// Metrics is the step clock and the per-replica latency
	// bookkeeping; its accessors take the replica index.
	Metrics

	group  BatchGroup
	drawer sched.BatchDrawer

	// Step scratch.
	pids []int32
	done []bool
}

// NewBatchSim builds a batched simulator from a group and a drawer
// agreeing on replica count and process count.
func NewBatchSim(group BatchGroup, drawer sched.BatchDrawer) (*BatchSim, error) {
	if group == nil {
		return nil, errors.New("machine: nil batch group")
	}
	if drawer == nil {
		return nil, errors.New("machine: nil batch drawer")
	}
	k, n := group.K(), group.N()
	if k < 1 || n < 1 {
		return nil, fmt.Errorf("%w: group %d replicas x %d processes", ErrBatchMismatch, k, n)
	}
	if drawer.K() != k || drawer.N() != n {
		return nil, fmt.Errorf("%w: drawer %dx%d vs group %dx%d",
			ErrBatchMismatch, drawer.K(), drawer.N(), k, n)
	}
	return &BatchSim{
		Metrics: newMetrics(k, n),
		group:   group,
		drawer:  drawer,
		pids:    make([]int32, k),
		done:    make([]bool, k),
	}, nil
}

// Run advances every replica by steps time units.
func (b *BatchSim) Run(steps uint64) error {
	pids, done := b.pids, b.done
	for i := uint64(0); i < steps; i++ {
		if err := b.drawer.NextBatch(pids); err != nil {
			return fmt.Errorf("machine: batch schedule step %d: %w", b.steps, err)
		}
		b.steps++
		b.group.StepBatch(pids, done)
		for r := 0; r < len(done); r++ {
			if done[r] {
				b.recordCompletion(r, int(pids[r]))
			}
		}
	}
	return nil
}
