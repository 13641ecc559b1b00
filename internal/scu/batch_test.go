package scu

import (
	"errors"
	"fmt"
	"testing"

	"pwf/internal/machine"
	"pwf/internal/rng"
	"pwf/internal/sched"
	"pwf/internal/shmem"
)

// scalarRun is one freshly built scalar replica: its processes, its
// shared memory (already initialized when the workload needs it), and
// the post-run invariant check when the workload has one.
type scalarRun struct {
	procs []machine.Process
	mem   *shmem.Memory
	check func() error
}

// groupCase wires one workload's scalar and batched forms.
type groupCase struct {
	name   string
	scalar func(n int) (scalarRun, error)
	batch  func(k, n int) (machine.BatchGroup, error)
}

// simpleScalar adapts the register-only workloads, whose memory is a
// zeroed layout and whose group constructor is independent of it.
func simpleScalar(layout int, group func(n int) ([]machine.Process, error)) func(n int) (scalarRun, error) {
	return func(n int) (scalarRun, error) {
		procs, err := group(n)
		if err != nil {
			return scalarRun{}, err
		}
		mem, err := shmem.New(layout)
		return scalarRun{procs: procs, mem: mem}, err
	}
}

// testPool is the per-process node pool of the pointer-based cases:
// small enough that a 5000-step run recycles slots through the
// precise-GC scan many times over.
const testPool = 8

// rcuReaders mirrors sweep's read-mostly split (~3/4 readers).
func rcuReaders(n int) int { return n - 1 - (n-1)/4 }

func groupCases() []groupCase {
	counterOps := func(pid int, seq int64) int64 { return 1 }
	return []groupCase{
		{
			"scu-q0-s1",
			simpleScalar(SCULayout(1), func(n int) ([]machine.Process, error) { return NewSCUGroup(n, 0, 1, 0) }),
			func(k, n int) (machine.BatchGroup, error) { return NewSCUBatch(k, n, 0, 1) },
		},
		{
			"scu-q2-s3",
			simpleScalar(SCULayout(3), func(n int) ([]machine.Process, error) { return NewSCUGroup(n, 2, 3, 0) }),
			func(k, n int) (machine.BatchGroup, error) { return NewSCUBatch(k, n, 2, 3) },
		},
		{
			"parallel-q4",
			simpleScalar(1, func(n int) ([]machine.Process, error) { return NewParallelGroup(n, 4, 0) }),
			func(k, n int) (machine.BatchGroup, error) { return NewParallelBatch(k, n, 4) },
		},
		{
			"fetchinc",
			simpleScalar(FetchIncLayout, func(n int) ([]machine.Process, error) { return NewFetchIncGroup(n, 0) }),
			func(k, n int) (machine.BatchGroup, error) { return NewFetchIncBatch(k, n) },
		},
		{
			"unbounded",
			simpleScalar(UnboundedLayout, func(n int) ([]machine.Process, error) { return NewUnboundedGroup(n, 0, 0) }),
			func(k, n int) (machine.BatchGroup, error) { return NewUnboundedBatch(k, n, 0) },
		},
		{
			"stack",
			func(n int) (scalarRun, error) {
				st, err := NewStack(n, testPool, 0)
				if err != nil {
					return scalarRun{}, err
				}
				mem, err := shmem.New(StackLayout(n, testPool))
				if err != nil {
					return scalarRun{}, err
				}
				procs, err := st.Processes()
				return scalarRun{procs: procs, mem: mem, check: st.Check}, err
			},
			func(k, n int) (machine.BatchGroup, error) { return NewStackBatch(k, n, testPool) },
		},
		{
			"queue",
			func(n int) (scalarRun, error) {
				qu, err := NewQueue(n, testPool, 0)
				if err != nil {
					return scalarRun{}, err
				}
				mem, err := shmem.New(QueueLayout(n, testPool))
				if err != nil {
					return scalarRun{}, err
				}
				qu.Init(mem)
				procs, err := qu.Processes()
				return scalarRun{procs: procs, mem: mem, check: qu.Check}, err
			},
			func(k, n int) (machine.BatchGroup, error) { return NewQueueBatch(k, n, testPool) },
		},
		{
			"rcu",
			func(n int) (scalarRun, error) {
				readers := rcuReaders(n)
				r, err := NewRCU(n, readers, testPool, 0)
				if err != nil {
					return scalarRun{}, err
				}
				mem, err := shmem.New(RCULayout(n-readers, testPool))
				if err != nil {
					return scalarRun{}, err
				}
				procs, err := r.Processes()
				return scalarRun{procs: procs, mem: mem, check: r.Check}, err
			},
			func(k, n int) (machine.BatchGroup, error) { return NewRCUBatch(k, n, rcuReaders(n), testPool) },
		},
		{
			"lfuniversal",
			func(n int) (scalarRun, error) {
				u, err := NewLFUniversal(CounterObject{}, n, 0)
				if err != nil {
					return scalarRun{}, err
				}
				mem, err := shmem.New(LFUniversalLayout)
				if err != nil {
					return scalarRun{}, err
				}
				procs, err := u.Processes(counterOps)
				return scalarRun{procs: procs, mem: mem, check: u.Check}, err
			},
			func(k, n int) (machine.BatchGroup, error) {
				return NewLFUniversalBatch(CounterObject{}, k, n, counterOps)
			},
		},
	}
}

// TestBatchSimMatchesScalarSims runs a BatchSim (uniform batch drawer
// + batch group) against K scalar Sims built from the same seeds and
// demands bit-identical metrics for every replica — including across
// a mid-run ResetMetrics, the warmup flow of a sweep point.
func TestBatchSimMatchesScalarSims(t *testing.T) {
	const (
		n      = 17
		k      = 4
		warmup = 500
		steps  = 5000
	)
	seeds := make([]uint64, k)
	for r := range seeds {
		seeds[r] = uint64(42 + 13*r)
	}
	for _, tc := range groupCases() {
		for _, crashes := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/crash=%d", tc.name, crashes), func(t *testing.T) {
				group, err := tc.batch(k, n)
				if err != nil {
					t.Fatal(err)
				}
				drawer, err := sched.NewUniformBatch(n, seeds)
				if err != nil {
					t.Fatal(err)
				}
				sims := make([]*machine.Sim, k)
				schs := make([]sched.Scheduler, k)
				checks := make([]func() error, k)
				for r := 0; r < k; r++ {
					sr, err := tc.scalar(n)
					if err != nil {
						t.Fatal(err)
					}
					checks[r] = sr.check
					if schs[r], err = sched.NewUniform(n, rng.New(seeds[r])); err != nil {
						t.Fatal(err)
					}
					if sims[r], err = machine.New(sr.mem, sr.procs, schs[r]); err != nil {
						t.Fatal(err)
					}
				}
				var bc sched.BatchCrasher = drawer
				for pid := n - crashes; pid < n; pid++ {
					if err := bc.Crash(pid); err != nil {
						t.Fatal(err)
					}
					for r := 0; r < k; r++ {
						if err := schs[r].(sched.Crasher).Crash(pid); err != nil {
							t.Fatal(err)
						}
					}
				}
				bs, err := machine.NewBatchSim(group, drawer)
				if err != nil {
					t.Fatal(err)
				}
				run := func(count uint64) {
					if err := bs.Run(count); err != nil {
						t.Fatal(err)
					}
					for r := 0; r < k; r++ {
						if err := sims[r].Run(count); err != nil {
							t.Fatal(err)
						}
					}
				}

				run(warmup)
				bs.ResetMetrics()
				for r := 0; r < k; r++ {
					sims[r].ResetMetrics()
				}
				run(steps)

				for r := 0; r < k; r++ {
					compareReplica(t, bs, sims[r], r)
				}

				// The batched form must expose per-replica invariant
				// checks exactly when the scalar workload has one, and
				// both must agree — message-for-message.
				chk, hasBatchCheck := group.(machine.BatchChecker)
				if hasBatchCheck != (checks[0] != nil) {
					t.Fatalf("BatchChecker = %v, scalar check = %v", hasBatchCheck, checks[0] != nil)
				}
				if hasBatchCheck {
					for r := 0; r < k; r++ {
						berr, serr := chk.CheckReplica(r), checks[r]()
						bmsg, smsg := "", ""
						if berr != nil {
							bmsg = berr.Error()
						}
						if serr != nil {
							smsg = serr.Error()
						}
						if bmsg != smsg {
							t.Errorf("replica %d: CheckReplica = %q, scalar check %q", r, bmsg, smsg)
						}
					}
				}
			})
		}
	}
}

// compareReplica checks every metric accessor of replica r of bs
// against the scalar sim, bit-exactly.
func compareReplica(t *testing.T, bs *machine.BatchSim, s *machine.Sim, r int) {
	t.Helper()
	bSys, bErr := bs.SystemLatency(r)
	sSys, sErr := s.SystemLatency()
	if bSys != sSys || (bErr == nil) != (sErr == nil) {
		t.Errorf("replica %d: SystemLatency = %v/%v, scalar %v/%v", r, bSys, bErr, sSys, sErr)
	}
	bInd, bErr := bs.MeanIndividualLatency(r)
	sInd, sErr := s.MeanIndividualLatency()
	if bInd != sInd || (bErr == nil) != (sErr == nil) {
		t.Errorf("replica %d: MeanIndividualLatency = %v/%v, scalar %v/%v", r, bInd, bErr, sInd, sErr)
	}
	bRatio, bErr := bs.SystemLatencyRatio(r)
	sRatio, sErr := s.SystemLatencyRatio()
	if bRatio != sRatio || (bErr == nil) != (sErr == nil) {
		t.Errorf("replica %d: SystemLatencyRatio = %v/%v, scalar %v/%v", r, bRatio, bErr, sRatio, sErr)
	}
	for pid := -1; pid <= s.N(); pid++ { // one out-of-range pid on each side
		bLat, bErr := bs.IndividualLatency(r, pid)
		sLat, sErr := s.IndividualLatency(pid)
		if bLat != sLat || fmt.Sprint(bErr) != fmt.Sprint(sErr) {
			t.Errorf("replica %d: IndividualLatency(%d) = %v/%v, scalar %v/%v", r, pid, bLat, bErr, sLat, sErr)
		}
		bGap, bErr := bs.MaxIndividualGap(r, pid)
		sGap, sErr := s.MaxIndividualGap(pid)
		if bGap != sGap || fmt.Sprint(bErr) != fmt.Sprint(sErr) {
			t.Errorf("replica %d: MaxIndividualGap(%d) = %v/%v, scalar %v/%v", r, pid, bGap, bErr, sGap, sErr)
		}
	}
	if got, want := bs.CompletionRate(r), s.CompletionRate(); got != want {
		t.Errorf("replica %d: CompletionRate = %v, scalar %v", r, got, want)
	}
	bFair, sFair := bs.FairnessIndex(r), s.FairnessIndex()
	if bFair != sFair && !(bFair != bFair && sFair != sFair) { // NaN-tolerant
		t.Errorf("replica %d: FairnessIndex = %v, scalar %v", r, bFair, sFair)
	}
	if got, want := bs.TotalCompletions(r), s.TotalCompletions(); got != want {
		t.Errorf("replica %d: TotalCompletions = %d, scalar %d", r, got, want)
	}
	bComp, sComp := bs.Completions(r), s.Completions()
	for pid := range sComp {
		if bComp[pid] != sComp[pid] {
			t.Errorf("replica %d: Completions[%d] = %d, scalar %d", r, pid, bComp[pid], sComp[pid])
		}
	}
	bStarved, sStarved := bs.StarvedProcesses(r), s.StarvedProcesses()
	if len(bStarved) != len(sStarved) {
		t.Errorf("replica %d: %d starved, scalar %d", r, len(bStarved), len(sStarved))
	} else {
		for i := range sStarved {
			if bStarved[i] != sStarved[i] {
				t.Errorf("replica %d: starved[%d] = %d, scalar %d", r, i, bStarved[i], sStarved[i])
			}
		}
	}
}

// TestStepPathsZeroAllocs pins the steady-state allocation contract
// of every workload with a batched form: after a warmup that lets the
// shadow-structure capacities stabilize, the replica-batched StepBatch
// loop allocates no more than its scalar counterparts do — zero for
// every workload whose scalar loop is allocation-free. The pointer-
// based forms recycle pool slots, never heap nodes; the residual
// scalar allocations are pre-existing verification bookkeeping (the
// queue's sliding shadow FIFO, the universal construction's response
// log), which the batched forms must not exceed per replica.
func TestStepPathsZeroAllocs(t *testing.T) {
	const (
		n = 9
		k = 4
	)
	for _, tc := range groupCases() {
		t.Run(tc.name, func(t *testing.T) {
			sr, err := tc.scalar(n)
			if err != nil {
				t.Fatal(err)
			}
			sch, err := sched.NewUniform(n, rng.New(7))
			if err != nil {
				t.Fatal(err)
			}
			sim, err := machine.New(sr.mem, sr.procs, sch)
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.Run(5000); err != nil {
				t.Fatal(err)
			}
			scalarAllocs := testing.AllocsPerRun(50, func() {
				if err := sim.Run(200); err != nil {
					t.Fatal(err)
				}
			})

			group, err := tc.batch(k, n)
			if err != nil {
				t.Fatal(err)
			}
			seeds := make([]uint64, k)
			for r := range seeds {
				seeds[r] = uint64(7 + r)
			}
			drawer, err := sched.NewUniformBatch(n, seeds)
			if err != nil {
				t.Fatal(err)
			}
			bs, err := machine.NewBatchSim(group, drawer)
			if err != nil {
				t.Fatal(err)
			}
			if err := bs.Run(5000); err != nil {
				t.Fatal(err)
			}
			batchAllocs := testing.AllocsPerRun(50, func() {
				if err := bs.Run(200); err != nil {
					t.Fatal(err)
				}
			})

			if scalarAllocs == 0 && batchAllocs != 0 {
				t.Errorf("batched Run allocated %v/run, scalar 0", batchAllocs)
			}
			if batchAllocs > float64(k)*scalarAllocs {
				t.Errorf("batched Run allocated %v/run for %d replicas, scalar %v/run each",
					batchAllocs, k, scalarAllocs)
			}
		})
	}
}

// TestBatchGroupErrors exercises the constructor edges.
func TestBatchGroupErrors(t *testing.T) {
	for _, fn := range []func() error{
		func() error { _, err := NewSCUBatch(0, 4, 0, 1); return err },
		func() error { _, err := NewSCUBatch(2, 0, 0, 1); return err },
		func() error { _, err := NewSCUBatch(2, 4, -1, 1); return err },
		func() error { _, err := NewSCUBatch(2, 4, 0, 0); return err },
		func() error { _, err := NewParallelBatch(2, 4, 0); return err },
		func() error { _, err := NewParallelBatch(0, 4, 1); return err },
		func() error { _, err := NewFetchIncBatch(0, 4); return err },
		func() error { _, err := NewFetchIncBatch(2, 0); return err },
		func() error { _, err := NewStackBatch(0, 4, 8); return err },
		func() error { _, err := NewStackBatch(2, 0, 8); return err },
		func() error { _, err := NewStackBatch(2, 4, 0); return err },
		func() error { _, err := NewQueueBatch(0, 4, 8); return err },
		func() error { _, err := NewQueueBatch(2, 4, -1); return err },
		func() error { _, err := NewRCUBatch(2, 4, 2, 0); return err },
		func() error { _, err := NewRCUBatch(2, 4, -1, 8); return err },
		func() error { _, err := NewRCUBatch(2, 4, 4, 8); return err },
		func() error { _, err := NewUnboundedBatch(0, 4, 0); return err },
		func() error { _, err := NewUnboundedBatch(2, 4, -1); return err },
		func() error {
			_, err := NewLFUniversalBatch(nil, 2, 4, func(int, int64) int64 { return 1 })
			return err
		},
		func() error { _, err := NewLFUniversalBatch(CounterObject{}, 2, 4, nil); return err },
		func() error {
			_, err := NewLFUniversalBatch(CounterObject{}, 2, 0, func(int, int64) int64 { return 1 })
			return err
		},
	} {
		if err := fn(); !errors.Is(err, ErrBadParams) {
			t.Errorf("constructor edge: err = %v, want ErrBadParams", err)
		}
	}
}
