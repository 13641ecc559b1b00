package sched

import (
	"errors"

	"pwf/internal/rng"
)

// Replica-batched drawers: the struct-of-arrays counterpart of the
// scalar schedulers. A batch drawer steps K independent replicas of
// the same scheduler configuration in lockstep — one NextBatch call
// draws the next scheduled pid for every replica.
//
// Each drawer embeds the same family core as its scalar scheduler
// (see sched.go): the active set, θ and the structures that depend
// only on the configuration (alias tables, the Fenwick tree, the
// phase clock) are built, validated and crashed by one body of code
// and shared across replicas. The drawer adds only one rng stream per
// replica, laid out contiguously so a draw touches one cache-resident
// table and one 32-byte source, plus its draw scratch.
//
// Determinism contract: replica r of a batch drawer built from
// seeds[r] produces exactly the pid sequence the corresponding scalar
// scheduler produces when built with rng.New(seeds[r]) — the batch
// draw code paths use the scalar sampling structures verbatim, one
// replica source at a time (TestBatchDrawerMatchesScalar pins this).
//
// Crashes are configuration, not per-replica state: Crash removes the
// pid from every replica at once, matching the sweep engine's
// pre-run crash plans, where every replica of a batch shares one
// crash count.

// Batch drawer errors.
var (
	ErrNoReplicas = errors.New("sched: batch needs at least one replica seed")
	ErrBatchLen   = errors.New("sched: pid buffer length differs from replica count")
)

// BatchDrawer draws the next scheduled process for each of K
// independent replicas in one call.
type BatchDrawer interface {
	// NextBatch fills pids[r] with the process scheduled next in
	// replica r. len(pids) must equal K(). It fails only when every
	// process has crashed.
	NextBatch(pids []int32) error
	// N returns the number of processes per replica.
	N() int
	// K returns the number of replicas.
	K() int
	// Threshold returns θ, identical across replicas (it is a property
	// of the configuration, not of any replica's randomness).
	Threshold() float64
}

// BatchCrasher is implemented by batch drawers that support fail-stop
// crashes. A crash applies to every replica at once.
type BatchCrasher interface {
	// Crash removes pid from the shared active set.
	Crash(pid int) error
	// NumCorrect returns |A_τ| (the same in every replica).
	NumCorrect() int
}

// replicas holds one rng stream per replica, stored by value in one
// contiguous slice so consecutive draws in a batch walk memory
// linearly.
type replicas []rng.Source

// newReplicas seeds each source exactly as rng.New(seeds[r]) would
// be, which is what the determinism contract rests on.
func newReplicas(seeds []uint64) (replicas, error) {
	if len(seeds) == 0 {
		return nil, ErrNoReplicas
	}
	srcs := make(replicas, len(seeds))
	for r, seed := range seeds {
		srcs[r].Seed(seed)
	}
	return srcs, nil
}

// K implements BatchDrawer.
func (rs replicas) K() int { return len(rs) }

// replicaCount is the seedless drawers' verdict on their width.
func replicaCount(k int) error {
	if k < 1 {
		return ErrNoReplicas
	}
	return nil
}

// UniformBatch is the replica-batched Uniform scheduler: K replicas
// drawing from one shared dense active set with per-replica sources.
type UniformBatch struct {
	uniformCore
	replicas
	draws []int64 // IntnBatch scratch, one slot per replica
}

var (
	_ BatchDrawer  = (*UniformBatch)(nil)
	_ BatchCrasher = (*UniformBatch)(nil)
)

// NewUniformBatch builds a uniform batch drawer over n processes with
// one replica per seed.
func NewUniformBatch(n int, seeds []uint64) (*UniformBatch, error) {
	srcs, srcErr := newReplicas(seeds)
	c, err := newUniformCore(n, srcErr)
	if err != nil {
		return nil, err
	}
	return &UniformBatch{uniformCore: c, replicas: srcs, draws: make([]int64, len(srcs))}, nil
}

// NextBatch implements BatchDrawer: one O(1) dense-set pick per
// replica, all against the same id list.
func (u *UniformBatch) NextBatch(pids []int32) error {
	if len(pids) != len(u.replicas) {
		return ErrBatchLen
	}
	ids := u.ids
	if len(ids) == 0 {
		return ErrAllCrashed
	}
	rng.IntnBatch(u.replicas, len(ids), u.draws)
	for r, d := range u.draws {
		pids[r] = ids[d]
	}
	return nil
}

// StickyBatch is the replica-batched Sticky scheduler. The stickiness
// decision and the previously scheduled process are per-replica state;
// the active set is shared.
type StickyBatch struct {
	stickyCore
	replicas
	last   []int32
	primed []bool
}

var (
	_ BatchDrawer  = (*StickyBatch)(nil)
	_ BatchCrasher = (*StickyBatch)(nil)
)

// NewStickyBatch builds a sticky batch drawer with stickiness rho in
// [0, 1).
func NewStickyBatch(n int, rho float64, seeds []uint64) (*StickyBatch, error) {
	c, err := newStickyCore(n, rho, nil)
	if err != nil {
		return nil, err
	}
	srcs, err := newReplicas(seeds)
	if err != nil {
		return nil, err
	}
	return &StickyBatch{
		stickyCore: c,
		replicas:   srcs,
		last:       make([]int32, len(seeds)),
		primed:     make([]bool, len(seeds)),
	}, nil
}

// NextBatch implements BatchDrawer, mirroring Sticky.Next per replica:
// a Bernoulli trial on the previous pick, falling back to a dense-set
// draw.
func (s *StickyBatch) NextBatch(pids []int32) error {
	if len(pids) != len(s.replicas) {
		return ErrBatchLen
	}
	ids := s.ids
	if len(ids) == 0 {
		return ErrAllCrashed
	}
	for r := range s.replicas {
		src := &s.replicas[r]
		if s.primed[r] && s.alive[s.last[r]] && src.Bernoulli(s.rho) {
			pids[r] = s.last[r]
			continue
		}
		pid := ids[src.Intn(len(ids))]
		s.last[r] = pid
		s.primed[r] = true
		pids[r] = pid
	}
	return nil
}

// WeightedBatch is the replica-batched Weighted scheduler: one alias
// table shared by every replica, per-replica sources.
type WeightedBatch struct {
	weightedCore
	replicas
}

var (
	_ BatchDrawer  = (*WeightedBatch)(nil)
	_ BatchCrasher = (*WeightedBatch)(nil)
)

// NewWeightedBatch builds a weighted batch drawer; weights must be
// strictly positive.
func NewWeightedBatch(weights []float64, seeds []uint64) (*WeightedBatch, error) {
	srcs, srcErr := newReplicas(seeds)
	c, err := newWeightedCore(weights, srcErr)
	if err != nil {
		return nil, err
	}
	return &WeightedBatch{weightedCore: c, replicas: srcs}, nil
}

// NextBatch implements BatchDrawer: one O(1) alias draw per replica
// against the shared table.
func (w *WeightedBatch) NextBatch(pids []int32) error {
	if len(pids) != len(w.replicas) {
		return ErrBatchLen
	}
	if w.NumCorrect() == 0 {
		return ErrAllCrashed
	}
	for r := range w.replicas {
		pids[r] = int32(w.table.draw(&w.replicas[r]))
	}
	return nil
}

// LotteryBatch is the replica-batched Lottery scheduler: one Fenwick
// tree over the active ticket counts shared by every replica. The
// tree for paper-scale n fits in L1, so the O(log n) inverse-CDF
// searches of a whole batch hit cache and overlap across replicas.
type LotteryBatch struct {
	lotteryCore
	replicas
	wins []int64 // findBatch scratch, one slot per replica
}

var (
	_ BatchDrawer  = (*LotteryBatch)(nil)
	_ BatchCrasher = (*LotteryBatch)(nil)
)

// NewLotteryBatch builds a lottery batch drawer; every process must
// hold at least one ticket.
func NewLotteryBatch(tickets []int, seeds []uint64) (*LotteryBatch, error) {
	srcs, srcErr := newReplicas(seeds)
	c, err := newLotteryCore(tickets, srcErr)
	if err != nil {
		return nil, err
	}
	return &LotteryBatch{lotteryCore: c, replicas: srcs, wins: make([]int64, len(srcs))}, nil
}

// NextBatch implements BatchDrawer: one winning-ticket draw and one
// O(log n) tree search per replica, all against the shared tree. The
// searches run through findBatch so the descents of the whole batch
// overlap instead of serialising one dependent chain at a time.
func (l *LotteryBatch) NextBatch(pids []int32) error {
	if len(pids) != len(l.replicas) {
		return ErrBatchLen
	}
	if l.NumCorrect() == 0 {
		return ErrAllCrashed
	}
	rng.IntnBatch(l.replicas, int(l.activeTotal), l.wins)
	l.fen.findBatch(l.wins, pids)
	return nil
}

// PhasedBatch is the replica-batched Phased scheduler: the phase
// clock and the per-phase alias tables are shared; only the draw
// randomness is per replica.
type PhasedBatch struct {
	phasedCore
	replicas
}

var (
	_ BatchDrawer  = (*PhasedBatch)(nil)
	_ BatchCrasher = (*PhasedBatch)(nil)
)

// NewPhasedBatch builds a phased batch drawer cycling through the
// given phases.
func NewPhasedBatch(n int, phases []Phase, seeds []uint64) (*PhasedBatch, error) {
	srcs, err := newReplicas(seeds)
	if err != nil {
		return nil, err
	}
	c, err := newPhasedCore(n, phases, nil)
	if err != nil {
		return nil, err
	}
	return &PhasedBatch{phasedCore: c, replicas: srcs}, nil
}

// NextBatch implements BatchDrawer: the shared phase clock advances
// once, then every replica draws from the current phase's table.
func (p *PhasedBatch) NextBatch(pids []int32) error {
	if len(pids) != len(p.replicas) {
		return ErrBatchLen
	}
	if p.NumCorrect() == 0 {
		return ErrAllCrashed
	}
	table := p.tick()
	for r := range p.replicas {
		pids[r] = int32(table.draw(&p.replicas[r]))
	}
	return nil
}

// RoundRobinBatch is the replica-batched RoundRobin scheduler: the
// cursor is shared, so every replica gets the same pid each step.
type RoundRobinBatch struct {
	roundRobinCore
	k int
}

var (
	_ BatchDrawer  = (*RoundRobinBatch)(nil)
	_ BatchCrasher = (*RoundRobinBatch)(nil)
)

// NewRoundRobinBatch builds a round-robin batch drawer over n
// processes and k replicas.
func NewRoundRobinBatch(n, k int) (*RoundRobinBatch, error) {
	c, err := newRoundRobinCore(n, replicaCount(k))
	if err != nil {
		return nil, err
	}
	return &RoundRobinBatch{roundRobinCore: c, k: k}, nil
}

// NextBatch implements BatchDrawer.
func (r *RoundRobinBatch) NextBatch(pids []int32) error {
	if len(pids) != r.k {
		return ErrBatchLen
	}
	pid, err := r.advance()
	if err != nil {
		return err
	}
	for i := range pids {
		pids[i] = int32(pid)
	}
	return nil
}

// K implements BatchDrawer.
func (r *RoundRobinBatch) K() int { return r.k }

// AdversarialBatch is the replica-batched Adversarial scheduler: the
// strategy and its clock are shared, so all replicas see the same
// point-mass schedule.
type AdversarialBatch struct {
	adversaryCore
	k int
}

var _ BatchDrawer = (*AdversarialBatch)(nil)

// NewAdversarialBatch builds an adversarial batch drawer.
func NewAdversarialBatch(n, k int, strategy Strategy) (*AdversarialBatch, error) {
	c, err := newAdversaryCore(n, strategy, replicaCount(k))
	if err != nil {
		return nil, err
	}
	return &AdversarialBatch{adversaryCore: c, k: k}, nil
}

// NextBatch implements BatchDrawer.
func (a *AdversarialBatch) NextBatch(pids []int32) error {
	if len(pids) != a.k {
		return ErrBatchLen
	}
	pid, err := a.advance()
	if err != nil {
		return err
	}
	for i := range pids {
		pids[i] = int32(pid)
	}
	return nil
}

// K implements BatchDrawer.
func (a *AdversarialBatch) K() int { return a.k }
