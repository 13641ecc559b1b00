package main

import (
	"fmt"
	"io"
	"slices"
	"time"

	"pwf/internal/machine"
	"pwf/internal/obs"
	"pwf/internal/rng"
	"pwf/internal/sched"
	"pwf/internal/scu"
	"pwf/internal/shmem"
	"pwf/internal/sweep"
)

// The layer ledger splits one simulated step into its layers by
// probing each on the workload's shapes:
//
//   - draw: the scheduler alone (Scheduler.Next, BatchDrawer.NextBatch),
//     recording the pid sequence it draws;
//   - step: machine.Sim (or BatchSim) driven by a replay of that
//     sequence, so sampling is excluded; shmem counters come from
//     this run's memory;
//   - end to end: the same job through sweep.RunJob (or sweep.Run at
//     width 16), which must reproduce the replay's completions.
//
// residual = (end to end − draw − step) ÷ end to end is what the
// decomposition leaves unexplained: build, warm-up bookkeeping,
// metric finalization, witness checks. Probes use a fixed seed, so
// their counts repeat exactly across runs.

const (
	ledgerSeed  = 0x5eed_1ed9e
	ledgerWidth = 16
)

// probe is one shape the ledger measures.
type probe struct {
	w      sweep.Workload
	n      int
	spec   sweep.SchedulerSpec
	warmup uint64
	steps  uint64
}

func (p probe) job() sweep.Job {
	return sweep.Job{Workload: p.w, N: p.n, Sched: p.spec, Steps: p.steps, WarmupFraction: 0.1}
}

// ledger accumulates probe measurements. Times are summed over probes
// of equal length, so a ratio of sums is the per-step mean over the
// workload's shapes.
type ledger struct {
	draw, step, e2e    time.Duration
	steps              uint64 // scalar steps per measured layer
	bdraw, bstep, brun time.Duration
	be2e               time.Duration
	bsteps             uint64 // replica-steps per measured batch layer
	window             uint64 // measured-window steps behind the counts
	completions        uint64
	cas, casFailures   uint64
	mismatches         []string
	conflict           []conflictRow
}

// run measures every probe repeats times.
func (l *ledger) run(probes []probe, repeats int) error {
	for rep := 0; rep < repeats; rep++ {
		for i, p := range probes {
			seed := rng.Stream(ledgerSeed, uint64(rep*len(probes)+i))
			if err := l.scalar(p, seed, rep == 0); err != nil {
				return fmt.Errorf("ledger %s n=%d %s: %w", p.w.Kind, p.n, p.spec, err)
			}
			if batchKind(p.w.Kind) {
				if err := l.batch(p, seed); err != nil {
					return fmt.Errorf("ledger batch %s n=%d %s: %w", p.w.Kind, p.n, p.spec, err)
				}
			}
		}
	}
	return nil
}

func (l *ledger) scalar(p probe, seed uint64, tabulate bool) error {
	total := p.warmup + p.steps
	s, err := buildScheduler(p.spec, p.n, seed)
	if err != nil {
		return err
	}
	pids := make([]int32, total)
	t0 := time.Now()
	for i := range pids {
		pid, err := s.Next()
		if err != nil {
			return err
		}
		pids[i] = int32(pid)
	}
	l.draw += time.Since(t0)

	mem, procs, check, err := buildProcs(p.w, p.n)
	if err != nil {
		return err
	}
	replay, err := sched.NewReplay(p.n, pids, false)
	if err != nil {
		return err
	}
	sim, err := machine.New(mem, procs, replay)
	if err != nil {
		return err
	}
	t0 = time.Now()
	if err := sim.Run(p.warmup); err != nil {
		return err
	}
	c0, done0 := mem.Counters(), sim.TotalCompletions()
	sim.ResetMetrics()
	if err := sim.Run(p.steps); err != nil {
		return err
	}
	l.step += time.Since(t0)
	c1 := mem.Counters()
	l.steps += total
	l.window += p.steps
	done := sim.TotalCompletions() - done0 // in the measured window
	l.completions += done
	l.cas += c1.CASes - c0.CASes
	l.casFailures += c1.CASFailures - c0.CASFailures
	if check != nil {
		if err := check(); err != nil {
			l.mismatches = append(l.mismatches, fmt.Sprintf("%s n=%d: replayed run fails its witness check: %v", p.w.Kind, p.n, err))
		}
	}

	t0 = time.Now()
	res, err := sweep.RunJob(p.job(), seed, sweep.NewChainCache())
	if err != nil {
		return err
	}
	l.e2e += time.Since(t0)
	if !slices.Equal(res.ProcCompletions, sim.Completions()) {
		l.mismatches = append(l.mismatches, fmt.Sprintf("%s n=%d %s: replay-driven completions differ from sweep.RunJob", p.w.Kind, p.n, p.spec))
	}
	if tabulate {
		if row, ok := conflictFor(p, done, c1, c0); ok {
			l.conflict = append(l.conflict, row)
		}
	}
	return nil
}

func (l *ledger) batch(p probe, seed uint64) error {
	total := p.warmup + p.steps
	seeds := make([]uint64, ledgerWidth)
	for r := range seeds {
		seeds[r] = rng.Stream(seed, uint64(r))
	}
	drawer, err := buildBatchDrawer(p.spec, p.n, seeds)
	if err != nil {
		return err
	}
	pids := make([]int32, total*ledgerWidth)
	t0 := time.Now()
	for i := uint64(0); i < total; i++ {
		if err := drawer.NextBatch(pids[i*ledgerWidth : (i+1)*ledgerWidth]); err != nil {
			return err
		}
	}
	l.bdraw += time.Since(t0)

	runBatch := func(d sched.BatchDrawer) (*machine.BatchSim, time.Duration, error) {
		group, err := buildBatchGroup(p.w, ledgerWidth, p.n)
		if err != nil {
			return nil, 0, err
		}
		bs, err := machine.NewBatchSim(group, d)
		if err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		if err := bs.Run(p.warmup); err != nil {
			return nil, 0, err
		}
		bs.ResetMetrics()
		if err := bs.Run(p.steps); err != nil {
			return nil, 0, err
		}
		return bs, time.Since(t0), nil
	}
	replayed, dt, err := runBatch(&replayBatch{pids: pids, n: p.n, k: ledgerWidth})
	if err != nil {
		return err
	}
	l.bstep += dt
	drawer, err = buildBatchDrawer(p.spec, p.n, seeds)
	if err != nil {
		return err
	}
	if _, dt, err = runBatch(drawer); err != nil {
		return err
	}
	l.brun += dt
	l.bsteps += total * ledgerWidth

	job := p.job()
	job.Replicas = ledgerWidth
	t0 = time.Now()
	results, err := sweep.Run(sweep.Config{
		Jobs: []sweep.Job{job}, Seed: seed, Workers: 1, ReplicaBatch: ledgerWidth,
		Cache: sweep.NewChainCache(), Registry: obs.NewRegistry(),
	})
	if err != nil {
		return err
	}
	l.be2e += time.Since(t0)
	for r, res := range results {
		if !slices.Equal(res.ProcCompletions, replayed.Completions(r)) {
			l.mismatches = append(l.mismatches, fmt.Sprintf("%s n=%d %s replica %d: replay-driven batch completions differ from sweep.Run", p.w.Kind, p.n, p.spec, r))
			break
		}
	}
	return nil
}

// layers reports the ledger's per-layer metrics. batched selects the
// decomposition the workload's points mostly take.
func (l *ledger) layers(rep *report, batched bool) {
	perStep := func(d time.Duration, n uint64) float64 { return float64(d) / float64(n) }
	rep.layer("sched.draw_ns", "ns", perStep(l.draw, l.steps))
	rep.layer("sched.batch_draw_ns", "ns", perStep(l.bdraw, l.bsteps))
	rep.layer("machine.step_ns", "ns", perStep(l.step, l.steps))
	rep.layer("machine.batch_step_ns", "ns", perStep(l.bstep, l.bsteps))
	rep.layer("machine.batch_run_ns", "ns", perStep(l.brun, l.bsteps))
	rep.layer("scu.completions_per_step", "ratio", float64(l.completions)/float64(l.window))
	rep.layer("shmem.cas_per_step", "ratio", float64(l.cas)/float64(l.window))
	rep.layer("shmem.cas_fail_ratio", "ratio", float64(l.casFailures)/float64(l.cas))
	e2e, parts := perStep(l.e2e, l.steps), perStep(l.draw+l.step, l.steps)
	if batched {
		e2e, parts = perStep(l.be2e, l.bsteps), perStep(l.bdraw+l.bstep, l.bsteps)
	}
	rep.layer("ledger.e2e_step_ns", "ns", e2e)
	rep.layer("ledger.residual_pct", "%", 100*(e2e-parts)/e2e)
	for _, m := range l.mismatches {
		rep.fail(0, "ledger: %s", m)
	}
}

// conflictRow maps one probe's shmem counts onto the conflict-based
// model of Atalar, Renaud-Goud & Tsigas (arXiv:1508.03566): an
// operation is pw steps of parallel work, then attempts of cw steps
// (the retry loop, ending in a CAS), repeated until the CAS succeeds;
// every failed CAS is a logical conflict whose cw steps are wasted.
// Under the uniform scheduler a process takes its own W steps per
// operation (individual latency n·W, one step in n), so
// attempts per operation = (W − pw) ÷ cw; the predicted column takes
// W from the exact Markov chain of the source paper, the measured one
// from the replay-driven run.
type conflictRow struct {
	kind          string
	n, pw, cw     int
	wExact, wMeas float64
	casPerStep    [2]float64 // predicted, measured
	failPerOp     [2]float64
	wastedShare   [2]float64 // failed attempts × cw ÷ W
}

func conflictFor(p probe, completions uint64, c1, c0 shmem.Counters) (conflictRow, bool) {
	if p.spec.Kind != sweep.SchedUniform || p.n > 16 || completions == 0 {
		return conflictRow{}, false
	}
	row := conflictRow{kind: string(p.w.Kind), n: p.n}
	cache := sweep.NewChainCache()
	var a interface{ SystemLatency() (float64, error) }
	var err error
	switch p.w.Kind {
	case sweep.SCU:
		row.pw, row.cw = p.w.Q, p.w.S+1
		if p.w.Q == 0 && p.w.S == 1 {
			a, err = cache.SCUSystem(p.n)
		} else {
			a, err = cache.SCUSystemQS(p.n, p.w.Q, p.w.S)
		}
	case sweep.FetchInc:
		row.pw, row.cw = 0, 1
		a, err = cache.FetchIncGlobal(p.n)
	default:
		return conflictRow{}, false
	}
	if err != nil {
		return conflictRow{}, false
	}
	if row.wExact, err = a.SystemLatency(); err != nil {
		return conflictRow{}, false
	}
	cas := float64(c1.CASes - c0.CASes)
	fail := float64(c1.CASFailures - c0.CASFailures)
	row.wMeas = float64(p.steps) / float64(completions)
	attempts := (row.wExact - float64(row.pw)) / float64(row.cw)
	row.casPerStep = [2]float64{attempts / row.wExact, cas / float64(p.steps)}
	row.failPerOp = [2]float64{attempts - 1, fail / float64(completions)}
	row.wastedShare = [2]float64{
		(attempts - 1) * float64(row.cw) / row.wExact,
		fail / float64(completions) * float64(row.cw) / row.wMeas,
	}
	return row, true
}

// writeConflictTable prints the measured-vs-predicted table.
func (l *ledger) writeConflictTable(w io.Writer) {
	if len(l.conflict) == 0 {
		return
	}
	fmt.Fprintln(w, "perfbench: conflict model (arXiv:1508.03566) vs shmem counts, uniform scheduler; pred | meas")
	fmt.Fprintln(w, "| workload | n | pw | cw | W exact | W meas | CAS/step pred | CAS/step meas | failed CAS/op pred | failed CAS/op meas | wasted share pred | wasted share meas |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|---|---|---|")
	for _, r := range l.conflict {
		fmt.Fprintf(w, "| %s | %d | %d | %d | %.3f | %.3f | %.4f | %.4f | %.3f | %.3f | %.3f | %.3f |\n",
			r.kind, r.n, r.pw, r.cw, r.wExact, r.wMeas,
			r.casPerStep[0], r.casPerStep[1], r.failPerOp[0], r.failPerOp[1],
			r.wastedShare[0], r.wastedShare[1])
	}
}

// replayBatch is a BatchDrawer replaying pid rows recorded from a
// real one: the batch counterpart of sched.Replay.
type replayBatch struct {
	pids []int32
	pos  int
	n, k int
}

func (r *replayBatch) NextBatch(dst []int32) error {
	if r.pos+r.k > len(r.pids) {
		return sched.ErrTraceExhausted
	}
	copy(dst, r.pids[r.pos:r.pos+r.k])
	r.pos += r.k
	return nil
}

func (r *replayBatch) N() int             { return r.n }
func (r *replayBatch) K() int             { return r.k }
func (r *replayBatch) Threshold() float64 { return 0 }

// The constructors below mirror sweep's unexported Workload.build,
// SchedulerSpec.build, buildBatchDrawer and buildBatchGroup. The
// ledger cross-checks every probe against sweep.RunJob / sweep.Run, so
// a constructor that drifts from the engine's shows up as a ledger
// mismatch, not as a silently different measurement.

func batchKind(k sweep.WorkloadKind) bool {
	switch k {
	case sweep.SCU, sweep.Parallel, sweep.FetchInc, sweep.Unbounded,
		sweep.Stack, sweep.Queue, sweep.RCU, sweep.LFUniversal:
		return true
	}
	return false
}

func poolOr(w sweep.Workload, def int) int {
	if w.PoolSize > 0 {
		return w.PoolSize
	}
	return def
}

func ones[T int | float64](n int) []T {
	v := make([]T, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

func phasesOf(s sweep.SchedulerSpec) []sched.Phase {
	phases := make([]sched.Phase, len(s.Phases))
	for i, ph := range s.Phases {
		phases[i] = sched.Phase{Weights: ph.Weights, Steps: ph.Steps}
	}
	return phases
}

func buildScheduler(s sweep.SchedulerSpec, n int, seed uint64) (sched.Scheduler, error) {
	switch s.Kind {
	case "", sweep.SchedUniform:
		return sched.NewUniform(n, rng.New(seed))
	case sweep.SchedRoundRobin:
		return sched.NewRoundRobin(n)
	case sweep.SchedSticky:
		return sched.NewSticky(n, s.Rho, rng.New(seed))
	case sweep.SchedLottery:
		if s.Tickets == nil {
			return sched.NewLottery(ones[int](n), rng.New(seed))
		}
		return sched.NewLottery(s.Tickets, rng.New(seed))
	case sweep.SchedWeighted:
		if s.Weights == nil {
			return sched.NewWeighted(ones[float64](n), rng.New(seed))
		}
		return sched.NewWeighted(s.Weights, rng.New(seed))
	case sweep.SchedPhased:
		return sched.NewPhased(n, phasesOf(s), rng.New(seed))
	case sweep.SchedAdversary:
		return sched.NewAdversarial(n, sched.SingleOut(s.Victim))
	}
	return nil, fmt.Errorf("unknown scheduler kind %q", s.Kind)
}

func buildBatchDrawer(s sweep.SchedulerSpec, n int, seeds []uint64) (sched.BatchDrawer, error) {
	switch s.Kind {
	case "", sweep.SchedUniform:
		return sched.NewUniformBatch(n, seeds)
	case sweep.SchedRoundRobin:
		return sched.NewRoundRobinBatch(n, len(seeds))
	case sweep.SchedSticky:
		return sched.NewStickyBatch(n, s.Rho, seeds)
	case sweep.SchedLottery:
		if s.Tickets == nil {
			return sched.NewLotteryBatch(ones[int](n), seeds)
		}
		return sched.NewLotteryBatch(s.Tickets, seeds)
	case sweep.SchedWeighted:
		if s.Weights == nil {
			return sched.NewWeightedBatch(ones[float64](n), seeds)
		}
		return sched.NewWeightedBatch(s.Weights, seeds)
	case sweep.SchedPhased:
		return sched.NewPhasedBatch(n, phasesOf(s), seeds)
	case sweep.SchedAdversary:
		return sched.NewAdversarialBatch(n, len(seeds), sched.SingleOut(s.Victim))
	}
	return nil, fmt.Errorf("unknown scheduler kind %q", s.Kind)
}

func buildBatchGroup(w sweep.Workload, k, n int) (machine.BatchGroup, error) {
	switch w.Kind {
	case sweep.SCU:
		return scu.NewSCUBatch(k, n, w.Q, w.S)
	case sweep.Parallel:
		return scu.NewParallelBatch(k, n, w.Q)
	case sweep.FetchInc:
		return scu.NewFetchIncBatch(k, n)
	case sweep.Unbounded:
		return scu.NewUnboundedBatch(k, n, w.WaitFactor)
	case sweep.Stack:
		return scu.NewStackBatch(k, n, poolOr(w, 64))
	case sweep.Queue:
		return scu.NewQueueBatch(k, n, poolOr(w, 64))
	case sweep.RCU:
		return scu.NewRCUBatch(k, n, n-1-(n-1)/4, poolOr(w, 64))
	case sweep.LFUniversal:
		return scu.NewLFUniversalBatch(scu.CounterObject{}, k, n, incrementBy1)
	}
	return nil, fmt.Errorf("no batched form for %q", w.Kind)
}

func incrementBy1(pid int, seq int64) int64 { return 1 }

// buildProcs assembles the scalar workload: memory, processes and the
// post-run witness check, if the workload has one.
func buildProcs(w sweep.Workload, n int) (*shmem.Memory, []machine.Process, func() error, error) {
	var (
		size  int
		check func() error
		init  func(*shmem.Memory)
		procs func() ([]machine.Process, error)
		err   error
	)
	switch w.Kind {
	case sweep.SCU:
		size = scu.SCULayout(w.S)
		procs = func() ([]machine.Process, error) { return scu.NewSCUGroup(n, w.Q, w.S, 0) }
	case sweep.Parallel:
		size = 1
		procs = func() ([]machine.Process, error) { return scu.NewParallelGroup(n, w.Q, 0) }
	case sweep.FetchInc:
		size = scu.FetchIncLayout
		procs = func() ([]machine.Process, error) { return scu.NewFetchIncGroup(n, 0) }
	case sweep.Unbounded:
		size = scu.UnboundedLayout
		procs = func() ([]machine.Process, error) { return scu.NewUnboundedGroup(n, 0, w.WaitFactor) }
	case sweep.Stack:
		var st *scu.Stack
		if st, err = scu.NewStack(n, poolOr(w, 64), 0); err == nil {
			size, check, procs = scu.StackLayout(n, poolOr(w, 64)), st.Check, st.Processes
		}
	case sweep.Queue:
		var q *scu.Queue
		if q, err = scu.NewQueue(n, poolOr(w, 64), 0); err == nil {
			size, check, init, procs = scu.QueueLayout(n, poolOr(w, 64)), q.Check, q.Init, q.Processes
		}
	case sweep.RCU:
		readers := n - 1 - (n-1)/4 // read-mostly, as sweep builds it
		var r *scu.RCU
		if r, err = scu.NewRCU(n, readers, poolOr(w, 64), 0); err == nil {
			size, check, procs = scu.RCULayout(n-readers, poolOr(w, 64)), r.Check, r.Processes
		}
	case sweep.List:
		var l *scu.List
		if l, err = scu.NewList(n, poolOr(w, 64), 0); err == nil {
			size, init = scu.ListLayout(n, poolOr(w, 64)), l.Init
			procs = func() ([]machine.Process, error) { return l.Processes(32) }
		}
	case sweep.HashSet:
		var h *scu.HashSet
		if h, err = scu.NewHashSet(n, 8, poolOr(w, 32), 0); err == nil {
			size, init = scu.HashSetLayout(n, 8, poolOr(w, 32)), h.Init
			procs = func() ([]machine.Process, error) { return h.Processes(64) }
		}
	case sweep.LFUniversal:
		var u *scu.LFUniversal
		if u, err = scu.NewLFUniversal(scu.CounterObject{}, n, 0); err == nil {
			size, check = scu.LFUniversalLayout, u.Check
			procs = func() ([]machine.Process, error) { return u.Processes(incrementBy1) }
		}
	case sweep.WFUniversal:
		var u *scu.WFUniversal
		if u, err = scu.NewWFUniversal(scu.CounterObject{}, n, poolOr(w, 8), 0); err == nil {
			size, init = scu.WFUniversalLayout(n, poolOr(w, 8)), u.Init
			procs = func() ([]machine.Process, error) { return u.Processes(incrementBy1) }
		}
	default:
		err = fmt.Errorf("unknown workload kind %q", w.Kind)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	mem, err := shmem.New(size)
	if err != nil {
		return nil, nil, nil, err
	}
	if init != nil {
		init(mem)
	}
	ps, err := procs()
	return mem, ps, check, err
}
