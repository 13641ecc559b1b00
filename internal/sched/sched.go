// Package sched implements the stochastic scheduler model of
// Definition 1 in the paper: at each discrete time step the scheduler
// picks one process to take a shared-memory step. A scheduler for n
// processes is a triple (Π_τ, A_τ, θ): a per-step distribution Π_τ
// over process ids, a possibly-active set A_τ that shrinks over time
// (crash containment), and a threshold θ such that every process in
// A_τ is scheduled with probability at least θ.
//
// A scheduler is *stochastic* when θ > 0. Classic adversaries are the
// θ = 0 degenerate case in which Π_τ is a point mass chosen by a
// strategy.
//
// The concrete schedulers provided are:
//
//   - Uniform: the paper's uniform stochastic scheduler (γ_i = 1/|A_τ|).
//   - Weighted: an arbitrary fixed distribution with threshold θ.
//   - Lottery: ticket-based lottery scheduling (Petrou et al. [19]).
//   - Sticky: a Markov-modulated scheduler with local correlation —
//     with probability ρ it reschedules the previous process; still
//     stochastic for ρ < 1.
//   - RoundRobin: the deterministic fair baseline (θ = 0 but uniformly
//     isolating).
//   - Adversarial: a strategy-driven worst case (θ = 0).
//
// Every stochastic draw is constant-time or logarithmic in n, so a
// simulation of S steps spends O(S) — not O(S·n) — in scheduling:
// Uniform and Sticky draw from a dense swap-remove active set (O(1)),
// Weighted and Phased draw from Walker alias tables rebuilt only on
// crash (O(1) per draw), and Lottery draws through a Fenwick tree
// (O(log n) per draw and per ticket transfer). The superseded O(n)
// scan samplers survive as the NextNaive methods (see naive.go),
// which the equivalence tests and before/after benchmarks use as the
// reference implementation.
//
// Each scheduler family keeps its configuration — the active set A_τ,
// θ and the shared sampling structure — in one unexported core that
// both the scalar scheduler and its replica-batched drawer (batch.go)
// embed. The core owns the family's validation, rebuild, Crash,
// Threshold and N; a scalar scheduler adds only its rng source (and,
// for Sticky, its last pick).
package sched

import (
	"errors"
	"fmt"

	"pwf/internal/rng"
)

// Common scheduler errors.
var (
	ErrAllCrashed    = errors.New("sched: all processes have crashed")
	ErrBadProcess    = errors.New("sched: process id out of range")
	ErrLastProcess   = errors.New("sched: cannot crash the last correct process")
	ErrNotMinimal    = errors.New("sched: distribution does not sum to 1")
	ErrBelowThresh   = errors.New("sched: active process scheduled below threshold")
	ErrBadThreshold  = errors.New("sched: threshold out of (0, 1]")
	ErrNoProcesses   = errors.New("sched: need at least one process")
	ErrAlreadyDead   = errors.New("sched: process already crashed")
	ErrBadStickiness = errors.New("sched: stickiness out of [0, 1)")
)

// Scheduler decides, at each discrete time step, which process takes
// the next shared-memory step.
type Scheduler interface {
	// Next returns the id of the process scheduled for the next time
	// step. It fails only when every process has crashed.
	Next() (int, error)
	// N returns the total number of processes (crashed or not).
	N() int
	// Threshold returns θ, the minimum per-step scheduling probability
	// guaranteed to every active process. A return of 0 means the
	// scheduler is not stochastic.
	Threshold() float64
}

// Crasher is implemented by schedulers that support fail-stop crashes
// (the set A_τ of Definition 1). Crash containment — A_{τ+1} ⊆ A_τ —
// holds by construction: a crashed process never rejoins.
type Crasher interface {
	// Crash removes pid from the active set. At most n-1 processes may
	// crash, matching the model's assumption.
	Crash(pid int) error
	// Correct reports whether pid is still active.
	Correct(pid int) bool
	// NumCorrect returns |A_τ|.
	NumCorrect() int
}

// Shared constructor errors.
var (
	errNilSource   = errors.New("sched: nil rng source")
	errNilStrategy = errors.New("sched: nil strategy")
)

// sourceErr is a scalar constructor's verdict on its randomness.
func sourceErr(src *rng.Source) error {
	if src == nil {
		return errNilSource
	}
	return nil
}

// activeSet tracks the possibly-active processes A_τ. It keeps three
// views in sync: a boolean membership array (O(1) Correct), a dense id
// list maintained by swap-remove (O(1) uniform draws with no per-step
// allocation, at the cost of the list being unordered after a crash),
// and the inverse permutation pos mapping each live pid to its slot in
// ids. Every crash-capable scheduler and batch drawer embeds one
// through its family core and so gets N, Crash, Correct and
// NumCorrect by promotion.
type activeSet struct {
	alive []bool
	ids   []int32 // dense list of correct pids; unordered after crashes
	pos   []int32 // pid -> index into ids, -1 once crashed
}

// newActive checks a family's process count, then srcErr — the
// caller's missing randomness (a nil source, no seeds, zero width),
// which every constructor reports right after the count — and returns
// the full active set over n processes.
func newActive(n int, srcErr error) (activeSet, error) {
	if n < 1 {
		return activeSet{}, ErrNoProcesses
	}
	if srcErr != nil {
		return activeSet{}, srcErr
	}
	alive := make([]bool, n)
	ids := make([]int32, n)
	pos := make([]int32, n)
	for i := range alive {
		alive[i] = true
		ids[i] = int32(i)
		pos[i] = int32(i)
	}
	return activeSet{alive: alive, ids: ids, pos: pos}, nil
}

// N returns the total number of processes (crashed or not).
func (a *activeSet) N() int { return len(a.alive) }

// Crash removes pid from A_τ. At most n-1 processes may crash.
func (a *activeSet) Crash(pid int) error {
	if pid < 0 || pid >= len(a.alive) {
		return fmt.Errorf("%w: %d", ErrBadProcess, pid)
	}
	if !a.alive[pid] {
		return fmt.Errorf("%w: %d", ErrAlreadyDead, pid)
	}
	if len(a.ids) == 1 {
		return ErrLastProcess
	}
	a.alive[pid] = false
	last := int32(len(a.ids) - 1)
	moved := a.ids[last]
	slot := a.pos[pid]
	a.ids[slot] = moved
	a.pos[moved] = slot
	a.ids = a.ids[:last]
	a.pos[pid] = -1
	return nil
}

// Correct reports whether pid is still active.
func (a *activeSet) Correct(pid int) bool {
	return pid >= 0 && pid < len(a.alive) && a.alive[pid]
}

// NumCorrect returns |A_τ|.
func (a *activeSet) NumCorrect() int { return len(a.ids) }

// pick returns a uniformly random correct pid in O(1).
func (a *activeSet) pick(src *rng.Source) int {
	return int(a.ids[src.Intn(len(a.ids))])
}

// buildAlias rebuilds t over the active ids, weighting each by
// weights[pid]; buf is the caller's rebuild scratch, returned resized.
func (a *activeSet) buildAlias(t *aliasTable, weights, buf []float64) ([]float64, error) {
	buf = grow(buf, len(a.ids))
	for i, pid := range a.ids {
		buf[i] = weights[pid]
	}
	return buf, t.build(a.ids, buf)
}

// minShare returns the smallest share minW/total of a weight vector,
// and the index of its first non-positive weight (-1 if none).
func minShare(weights []float64) (float64, int) {
	var total float64
	minW := weights[0]
	for i, w := range weights {
		if w <= 0 {
			return 0, i
		}
		total += w
		if w < minW {
			minW = w
		}
	}
	return minW / total, -1
}

// uniformCore is the Uniform family's configuration: the active set
// alone.
type uniformCore struct{ activeSet }

func newUniformCore(n int, srcErr error) (uniformCore, error) {
	a, err := newActive(n, srcErr)
	return uniformCore{a}, err
}

// Threshold implements Scheduler: θ = 1/n (with crashes the actual
// per-step probability only grows, so 1/n remains a valid threshold).
func (c *uniformCore) Threshold() float64 { return 1 / float64(c.N()) }

// Uniform is the uniform stochastic scheduler of Section 2.3: every
// active process is scheduled with probability 1/|A_τ| at every step.
type Uniform struct {
	uniformCore
	src      *rng.Source
	naiveIDs []int // scratch for NextNaive only
}

var (
	_ Scheduler = (*Uniform)(nil)
	_ Crasher   = (*Uniform)(nil)
)

// NewUniform returns a uniform stochastic scheduler over n processes
// drawing randomness from src.
func NewUniform(n int, src *rng.Source) (*Uniform, error) {
	c, err := newUniformCore(n, sourceErr(src))
	if err != nil {
		return nil, err
	}
	return &Uniform{uniformCore: c, src: src}, nil
}

// Next implements Scheduler in O(1): one bounded draw from the dense
// active-id list, crashes or not.
func (u *Uniform) Next() (int, error) {
	if u.NumCorrect() == 0 {
		return 0, ErrAllCrashed
	}
	return u.pick(u.src), nil
}

// weightedCore is the Weighted family's configuration: the weights,
// θ, and the Walker alias table over the active processes. The table
// depends only on the weight restriction to A_τ, so it is rebuilt (in
// O(|A_τ|)) exactly when a process crashes and never on the per-step
// path.
type weightedCore struct {
	activeSet
	weights []float64
	theta   float64
	table   aliasTable
	wBuf    []float64 // rebuild scratch: weights of the active ids
}

// newWeightedCore validates the weights — strictly positive, so that
// the weak-fairness condition (θ > 0) holds — and builds the table.
func newWeightedCore(weights []float64, srcErr error) (weightedCore, error) {
	a, err := newActive(len(weights), srcErr)
	if err != nil {
		return weightedCore{}, err
	}
	theta, bad := minShare(weights)
	if bad >= 0 {
		return weightedCore{}, fmt.Errorf("sched: weight %v is not strictly positive", weights[bad])
	}
	c := weightedCore{activeSet: a, weights: append([]float64(nil), weights...), theta: theta}
	err = c.rebuild()
	return c, err
}

// rebuild reconstructs the alias table over the currently active
// processes. Called at construction and after every crash.
func (c *weightedCore) rebuild() (err error) {
	c.wBuf, err = c.buildAlias(&c.table, c.weights, c.wBuf)
	return err
}

// Threshold implements Scheduler.
func (c *weightedCore) Threshold() float64 { return c.theta }

// Crash implements Crasher, rebuilding the alias table over the
// shrunken active set (O(|A_τ|), amortized over at most n-1 crashes).
func (c *weightedCore) Crash(pid int) error {
	if err := c.activeSet.Crash(pid); err != nil {
		return err
	}
	return c.rebuild()
}

// Weighted schedules process i with fixed probability proportional to
// weights[i], renormalized over the active set after crashes. The
// threshold θ is the minimum renormalized probability across active
// processes in the crash-free case; it is validated at construction.
// Draws are O(1) through the core's alias table.
type Weighted struct {
	weightedCore
	src     *rng.Source
	scratch []float64 // NextNaive scratch
}

var (
	_ Scheduler = (*Weighted)(nil)
	_ Crasher   = (*Weighted)(nil)
)

// NewWeighted builds a weighted stochastic scheduler. Weights must be
// strictly positive so that the weak-fairness condition (θ > 0) holds.
func NewWeighted(weights []float64, src *rng.Source) (*Weighted, error) {
	c, err := newWeightedCore(weights, sourceErr(src))
	if err != nil {
		return nil, err
	}
	return &Weighted{weightedCore: c, src: src, scratch: make([]float64, len(weights))}, nil
}

// Next implements Scheduler in O(1) via the alias table. It reads
// len(w.ids) directly to stay within the compiler's inlining budget.
func (w *Weighted) Next() (int, error) {
	if len(w.ids) == 0 {
		return 0, ErrAllCrashed
	}
	return w.table.draw(w.src), nil
}

// lotteryCore is the Lottery family's configuration: the ticket
// holdings and a Fenwick tree over the active ticket counts, with the
// active ticket total maintained incrementally rather than recomputed
// per step.
type lotteryCore struct {
	activeSet
	tickets     []int
	total       int // all tickets, crashed holders included (Threshold)
	fen         *fenwick
	activeTotal int64 // tickets held by correct processes
}

// newLotteryCore validates the holdings (every process needs at least
// one ticket) and builds the tree.
func newLotteryCore(tickets []int, srcErr error) (lotteryCore, error) {
	a, err := newActive(len(tickets), srcErr)
	if err != nil {
		return lotteryCore{}, err
	}
	ts := make([]int, len(tickets))
	vals := make([]int64, len(tickets))
	total := 0
	for i, t := range tickets {
		if t < 1 {
			return lotteryCore{}, fmt.Errorf("sched: process %d holds %d tickets, need >= 1", i, t)
		}
		ts[i] = t
		vals[i] = int64(t)
		total += t
	}
	fen := newFenwick(len(tickets))
	fen.init(vals)
	return lotteryCore{activeSet: a, tickets: ts, total: total, fen: fen, activeTotal: int64(total)}, nil
}

// Threshold implements Scheduler: the minimum ticket share.
func (c *lotteryCore) Threshold() float64 {
	minT := c.tickets[0]
	for _, t := range c.tickets {
		if t < minT {
			minT = t
		}
	}
	return float64(minT) / float64(c.total)
}

// Crash implements Crasher, zeroing pid's tickets in the tree so the
// inverse-CDF search skips it (O(log n)).
func (c *lotteryCore) Crash(pid int) error {
	if err := c.activeSet.Crash(pid); err != nil {
		return err
	}
	c.fen.add(pid, -int64(c.tickets[pid]))
	c.activeTotal -= int64(c.tickets[pid])
	return nil
}

// Lottery implements lottery scheduling [Petrou et al. 1999]: each
// process holds an integer number of tickets and is scheduled with
// probability proportional to its holding. It is a Weighted scheduler
// with integer weights and runtime ticket transfers.
//
// Draws resolve the winning ticket through the core's Fenwick tree:
// O(log n) per draw, per transfer, and per crash. The tree's
// inverse-CDF search visits processes in id order exactly as the
// superseded linear scan did, so for identical rng states Next returns
// the identical pid sequence (see TestLotterySequenceMatchesNaive).
type Lottery struct {
	lotteryCore
	src *rng.Source
}

var (
	_ Scheduler = (*Lottery)(nil)
	_ Crasher   = (*Lottery)(nil)
)

// NewLottery builds a lottery scheduler; every process must hold at
// least one ticket.
func NewLottery(tickets []int, src *rng.Source) (*Lottery, error) {
	c, err := newLotteryCore(tickets, sourceErr(src))
	if err != nil {
		return nil, err
	}
	return &Lottery{lotteryCore: c, src: src}, nil
}

// Next implements Scheduler by drawing a winning ticket among active
// processes and resolving its holder in O(log n).
func (l *Lottery) Next() (int, error) {
	if l.NumCorrect() == 0 {
		return 0, ErrAllCrashed
	}
	win := l.src.Intn(int(l.activeTotal))
	return l.fen.find(int64(win)), nil
}

// SetTickets changes pid's holding at runtime (ticket transfers),
// O(log n).
func (l *Lottery) SetTickets(pid, tickets int) error {
	if pid < 0 || pid >= len(l.tickets) {
		return fmt.Errorf("%w: %d", ErrBadProcess, pid)
	}
	if tickets < 1 {
		return fmt.Errorf("sched: process %d needs >= 1 ticket", pid)
	}
	delta := tickets - l.tickets[pid]
	l.total += delta
	l.tickets[pid] = tickets
	if l.alive[pid] {
		l.fen.add(pid, int64(delta))
		l.activeTotal += int64(delta)
	}
	return nil
}

// stickyCore is the Sticky family's configuration: the active set and
// the stickiness ρ. The previous pick is per-replica state and lives
// in the scheduler or drawer.
type stickyCore struct {
	activeSet
	rho float64
}

func newStickyCore(n int, rho float64, srcErr error) (stickyCore, error) {
	a, err := newActive(n, srcErr)
	if err != nil {
		return stickyCore{}, err
	}
	if rho < 0 || rho >= 1 {
		return stickyCore{}, ErrBadStickiness
	}
	return stickyCore{activeSet: a, rho: rho}, nil
}

// Threshold implements Scheduler: (1-ρ)/n.
func (c *stickyCore) Threshold() float64 {
	return (1 - c.rho) / float64(c.N())
}

// Sticky is a Markov-modulated scheduler: with probability rho it
// schedules the same process as the previous step; otherwise it picks
// uniformly among active processes. This models the local correlation
// real schedulers exhibit (a thread tends to keep its core for a
// while) and is still stochastic: every active process has per-step
// probability at least (1-ρ)/n. Both rows of its two-state modulation
// are sampled in O(1): the sticky branch is a Bernoulli trial and the
// exploration branch draws from the dense active set.
type Sticky struct {
	stickyCore
	src      *rng.Source
	last     int
	primed   bool
	naiveIDs []int // scratch for NextNaive only
}

var (
	_ Scheduler = (*Sticky)(nil)
	_ Crasher   = (*Sticky)(nil)
)

// NewSticky builds a sticky scheduler with stickiness rho in [0, 1).
func NewSticky(n int, rho float64, src *rng.Source) (*Sticky, error) {
	c, err := newStickyCore(n, rho, sourceErr(src))
	if err != nil {
		return nil, err
	}
	return &Sticky{stickyCore: c, src: src}, nil
}

// Next implements Scheduler in O(1).
func (s *Sticky) Next() (int, error) {
	if s.NumCorrect() == 0 {
		return 0, ErrAllCrashed
	}
	if s.primed && s.alive[s.last] && s.src.Bernoulli(s.rho) {
		return s.last, nil
	}
	pid := s.pick(s.src)
	s.last = pid
	s.primed = true
	return pid, nil
}

// roundRobinCore is the RoundRobin family's configuration: the active
// set and the cyclic cursor. The schedule is deterministic, so the
// cursor is configuration too — every replica is at the same position.
type roundRobinCore struct {
	activeSet
	next int
}

func newRoundRobinCore(n int, srcErr error) (roundRobinCore, error) {
	a, err := newActive(n, srcErr)
	return roundRobinCore{activeSet: a}, err
}

// advance returns the next correct pid in cyclic id order.
func (c *roundRobinCore) advance() (int, error) {
	if c.NumCorrect() == 0 {
		return 0, ErrAllCrashed
	}
	for {
		pid := c.next
		c.next = (c.next + 1) % len(c.alive)
		if c.alive[pid] {
			return pid, nil
		}
	}
}

// Threshold implements Scheduler. RoundRobin is deterministic, so it
// provides no probabilistic threshold.
func (c *roundRobinCore) Threshold() float64 { return 0 }

// RoundRobin is the deterministic fair baseline: processes take steps
// in cyclic id order, skipping crashed ones. Its threshold is 0 (it is
// not stochastic), but every schedule it produces is uniformly
// isolating in the trivial k=1 sense and perfectly fair in the long
// run.
type RoundRobin struct{ roundRobinCore }

var (
	_ Scheduler = (*RoundRobin)(nil)
	_ Crasher   = (*RoundRobin)(nil)
)

// NewRoundRobin builds a round-robin scheduler over n processes.
func NewRoundRobin(n int) (*RoundRobin, error) {
	c, err := newRoundRobinCore(n, nil)
	if err != nil {
		return nil, err
	}
	return &RoundRobin{c}, nil
}

// Next implements Scheduler.
func (r *RoundRobin) Next() (int, error) { return r.advance() }

// Strategy chooses the process to schedule at time step tau given the
// number of processes. It encodes a classic asynchronous adversary as
// a point-mass distribution per step (Section 2.3).
type Strategy func(tau uint64, n int) int

// adversaryCore is the Adversarial family's configuration: the
// strategy and its step clock. The strategy is a deterministic
// function of the clock, so every replica sees the same schedule.
type adversaryCore struct {
	n        int
	tau      uint64
	strategy Strategy
}

func newAdversaryCore(n int, strategy Strategy, srcErr error) (adversaryCore, error) {
	if n < 1 {
		return adversaryCore{}, ErrNoProcesses
	}
	if srcErr != nil {
		return adversaryCore{}, srcErr
	}
	if strategy == nil {
		return adversaryCore{}, errNilStrategy
	}
	return adversaryCore{n: n, strategy: strategy}, nil
}

// advance asks the strategy for the next pid. A strategy returning an
// out-of-range id is an error (the adversary must be well-formed).
func (c *adversaryCore) advance() (int, error) {
	pid := c.strategy(c.tau, c.n)
	c.tau++
	if pid < 0 || pid >= c.n {
		return 0, fmt.Errorf("%w: strategy chose %d of %d", ErrBadProcess, pid, c.n)
	}
	return pid, nil
}

// N implements Scheduler.
func (c *adversaryCore) N() int { return c.n }

// Threshold implements Scheduler. Adversaries carry no probabilistic
// guarantee.
func (c *adversaryCore) Threshold() float64 { return 0 }

// Adversarial drives scheduling from a Strategy; θ = 0.
type Adversarial struct{ adversaryCore }

var _ Scheduler = (*Adversarial)(nil)

// NewAdversarial builds an adversarial scheduler over n processes.
func NewAdversarial(n int, strategy Strategy) (*Adversarial, error) {
	c, err := newAdversaryCore(n, strategy, nil)
	if err != nil {
		return nil, err
	}
	return &Adversarial{c}, nil
}

// Next implements Scheduler.
func (a *Adversarial) Next() (int, error) { return a.advance() }

// SingleOut returns a Strategy that starves victim: it cycles through
// all other processes and never schedules the victim. Used in tests
// and the E13 ablation to show what the stochastic model rules out.
func SingleOut(victim int) Strategy {
	return func(tau uint64, n int) int {
		if n == 1 {
			return 0
		}
		pid := int(tau % uint64(n-1))
		if pid >= victim {
			pid++
		}
		return pid
	}
}
