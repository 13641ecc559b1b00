package sched

import (
	"errors"
	"fmt"

	"pwf/internal/rng"
)

// Phase is one segment of a Phased schedule.
type Phase struct {
	// Weights gives each process's scheduling weight in this phase;
	// all must be strictly positive.
	Weights []float64
	// Steps is the phase length; must be >= 1.
	Steps uint64
}

// phasedCore is the Phased family's configuration: the phases, θ, the
// phase clock and one Walker alias table per phase over the active
// processes. The tables depend only on the phase weights restricted
// to A_τ and are rebuilt exactly when a process crashes. Replicas run
// in lockstep, so the clock is shared alongside the tables.
type phasedCore struct {
	activeSet
	phases []Phase
	idx    int    // current phase
	left   uint64 // steps remaining in the current phase
	theta  float64

	tables []aliasTable
	wBuf   []float64 // rebuild scratch
}

// newPhasedCore validates and copies the phases and builds their
// tables. θ is the worst-case minimum probability across all phases.
func newPhasedCore(n int, phases []Phase, srcErr error) (phasedCore, error) {
	a, err := newActive(n, srcErr)
	if err != nil {
		return phasedCore{}, err
	}
	if len(phases) == 0 {
		return phasedCore{}, errors.New("sched: need at least one phase")
	}
	theta := 1.0
	cp := make([]Phase, len(phases))
	for i, ph := range phases {
		if len(ph.Weights) != n {
			return phasedCore{}, fmt.Errorf("sched: phase %d has %d weights for %d processes",
				i, len(ph.Weights), n)
		}
		if ph.Steps < 1 {
			return phasedCore{}, fmt.Errorf("sched: phase %d has zero length", i)
		}
		t, bad := minShare(ph.Weights)
		if bad >= 0 {
			return phasedCore{}, fmt.Errorf("sched: phase %d weight %d is not strictly positive", i, bad)
		}
		if t < theta {
			theta = t
		}
		cp[i] = Phase{Weights: append([]float64(nil), ph.Weights...), Steps: ph.Steps}
	}
	c := phasedCore{
		activeSet: a,
		phases:    cp,
		left:      cp[0].Steps,
		theta:     theta,
		tables:    make([]aliasTable, len(cp)),
	}
	err = c.rebuild()
	return c, err
}

// rebuild reconstructs every phase's alias table over the currently
// active processes; called at construction and after every crash.
func (c *phasedCore) rebuild() (err error) {
	for i := range c.phases {
		if c.wBuf, err = c.buildAlias(&c.tables[i], c.phases[i].Weights, c.wBuf); err != nil {
			return err
		}
	}
	return nil
}

// tick advances the phase clock by one step and returns the alias
// table of the phase governing that step.
func (c *phasedCore) tick() *aliasTable {
	if c.left == 0 {
		c.idx = (c.idx + 1) % len(c.phases)
		c.left = c.phases[c.idx].Steps
	}
	c.left--
	return &c.tables[c.idx]
}

// Threshold implements Scheduler: the worst-case minimum probability
// over all phases (crash-free).
func (c *phasedCore) Threshold() float64 { return c.theta }

// Crash implements Crasher, rebuilding every phase table over the
// shrunken active set.
func (c *phasedCore) Crash(pid int) error {
	if err := c.activeSet.Crash(pid); err != nil {
		return err
	}
	return c.rebuild()
}

// Phased is a time-varying stochastic scheduler: Definition 1 lets
// the distribution Π_τ change at every step, and Phased realises a
// simple instance — the schedule cycles through a sequence of
// weighted phases, each lasting a fixed number of steps. It models
// workload shifts (e.g. a box that favours half the threads during a
// load spike and then flips). The threshold θ is the worst-case
// minimum probability across all phases, so the scheduler remains
// stochastic as long as every weight is positive.
//
// Each phase — each row of the cyclic modulation — owns an alias
// table in the core, so the per-step draw is O(1) regardless of n and
// of the number of phases.
type Phased struct {
	phasedCore
	src     *rng.Source
	scratch []float64 // NextNaive scratch
}

var (
	_ Scheduler = (*Phased)(nil)
	_ Crasher   = (*Phased)(nil)
)

// NewPhased builds a time-varying scheduler cycling through the given
// phases over n processes.
func NewPhased(n int, phases []Phase, src *rng.Source) (*Phased, error) {
	c, err := newPhasedCore(n, phases, sourceErr(src))
	if err != nil {
		return nil, err
	}
	return &Phased{phasedCore: c, src: src, scratch: make([]float64, n)}, nil
}

// Next implements Scheduler in O(1) via the current phase's alias
// table.
func (p *Phased) Next() (int, error) {
	if p.NumCorrect() == 0 {
		return 0, ErrAllCrashed
	}
	return p.tick().draw(p.src), nil
}

// CurrentPhase returns the index of the phase governing the next step.
func (p *Phased) CurrentPhase() int { return p.idx }
