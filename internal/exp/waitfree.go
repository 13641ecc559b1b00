package exp

import (
	"fmt"

	"pwf/internal/machine"
	"pwf/internal/scu"
	"pwf/internal/shmem"
)

// WaitFreePrice (E15) quantifies the trade-off that motivates the
// paper: a genuinely wait-free universal construction (Herlihy-style
// announce + helping) against the plain lock-free SCU universal
// construction, on the same fetch-and-add object under the same
// uniform stochastic scheduler.
//
// The paper's argument: lock-free is simpler and faster on average,
// and under a stochastic scheduler it already behaves wait-free — so
// the helping machinery buys only the worst-case bound, at a steep
// Θ(n) per-operation cost. This experiment measures both sides:
// average system latency (steps/op) and the worst single-operation
// cost in the caller's own steps (bounded for wait-free, heavy-tailed
// for lock-free).
func WaitFreePrice(cfg Config) (*Table, error) {
	var ns []int
	if cfg.Quick {
		ns = []int{2, 4, 8}
	} else {
		ns = []int{2, 4, 8, 16}
	}
	window := cfg.steps(1000000, 100000)

	t := &Table{
		ID:    "E15",
		Title: "The price of wait-freedom: lock-free SCU vs wait-free universal construction",
		Header: []string{
			"n", "LF W (steps/op)", "WF W (steps/op)", "WF/LF",
			"LF worst own-steps", "WF worst own-steps", "WF bound 20n",
		},
	}

	inc := func(pid int, seq int64) int64 { return 1 }
	for _, n := range ns {
		// Lock-free SCU universal counter.
		lf, err := scu.NewLFUniversal(scu.CounterObject{}, n, 0)
		if err != nil {
			return nil, err
		}
		lfMem, err := shmem.New(scu.LFUniversalLayout)
		if err != nil {
			return nil, err
		}
		lfProcs, err := lf.Processes(inc)
		if err != nil {
			return nil, err
		}
		lfSched, err := newUniform(n, cfg.Seed+uint64(n))
		if err != nil {
			return nil, err
		}
		// Built by hand, not through sweep.RunJob: the worst-case column
		// needs per-process own-step counts, which a sweep Result lacks.
		lfSim, err := machine.New(lfMem, lfProcs, lfSched)
		if err != nil {
			return nil, err
		}
		lfW, lfWorst, err := runUniversal(lfSim, window, n)
		if err != nil {
			return nil, fmt.Errorf("lock-free n=%d: %w", n, err)
		}
		if lf.Violations() != 0 {
			return nil, fmt.Errorf("lock-free universal violated linearizability at n=%d", n)
		}

		// Wait-free universal counter.
		const poolSize = 8
		wf, err := scu.NewWFUniversal(scu.CounterObject{}, n, poolSize, 0)
		if err != nil {
			return nil, err
		}
		wfMem, err := shmem.New(scu.WFUniversalLayout(n, poolSize))
		if err != nil {
			return nil, err
		}
		wf.Init(wfMem)
		wfProcs, err := wf.Processes(inc)
		if err != nil {
			return nil, err
		}
		wfSched, err := newUniform(n, cfg.Seed+uint64(n)+500)
		if err != nil {
			return nil, err
		}
		wfSim, err := machine.New(wfMem, wfProcs, wfSched)
		if err != nil {
			return nil, err
		}
		wfW, wfWorst, err := runUniversal(wfSim, window, n)
		if err != nil {
			return nil, fmt.Errorf("wait-free n=%d: %w", n, err)
		}
		if wf.Violations() != 0 {
			return nil, fmt.Errorf("wait-free universal violated linearizability at n=%d", n)
		}
		if wf.Err() != nil {
			return nil, wf.Err()
		}

		t.AddRow(n, lfW, wfW, wfW/lfW, lfWorst, wfWorst, 20*n)
	}
	t.Note = "the wait-free construction pays a Θ(n) average cost per operation for its " +
		"bounded worst case, while lock-free SCU — already wait-free in practice under the " +
		"stochastic scheduler — is several times faster on average: the paper's case for " +
		"skipping the helping machinery"
	return t, nil
}

// runUniversal runs warmup + window and extracts (system latency,
// worst per-op own-steps across processes). For the LF construction
// own-steps are reconstructed from the maximum individual gap (its
// processes take every gap step themselves only in expectation, so
// the reported figure is gap/n, the own-step share).
func runUniversal(sim *machine.Sim, window uint64, n int) (w float64, worstOwn uint64, err error) {
	if err := sim.Run(window / 10); err != nil {
		return 0, 0, err
	}
	sim.ResetMetrics()
	if err := sim.Run(window); err != nil {
		return 0, 0, err
	}
	w, err = sim.SystemLatency()
	if err != nil {
		return 0, 0, err
	}
	for pid := 0; pid < n; pid++ {
		if p, ok := procOf(sim, pid); ok {
			if m := p.MaxOwnSteps(); m > worstOwn {
				worstOwn = m
			}
			continue
		}
		gap, err := sim.MaxIndividualGap(pid)
		if err != nil {
			return 0, 0, err
		}
		if own := gap / uint64(n); own > worstOwn {
			worstOwn = own
		}
	}
	return w, worstOwn, nil
}

// ownStepsReporter is implemented by processes that track their own
// per-operation step counts exactly (the wait-free construction).
type ownStepsReporter interface {
	MaxOwnSteps() uint64
}

// procOf fetches the pid-th process if it reports own steps.
func procOf(sim *machine.Sim, pid int) (ownStepsReporter, bool) {
	p, ok := sim.ProcessAt(pid)
	if !ok {
		return nil, false
	}
	r, ok := p.(ownStepsReporter)
	return r, ok
}
