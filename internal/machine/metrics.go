package machine

import (
	"fmt"
	"math"

	"pwf/internal/stats"
)

// Metrics is the step clock and the latency and fairness bookkeeping
// of k replicas of n processes: the one implementation of both
// estimators. BatchSim embeds it, so its accessors are BatchSim's own;
// Sim embeds it as a single replica and answers its replica-free
// accessors from replica 0. Each replica's state evolves from its own
// completions only, in a fixed update order, so a replica's statistics
// are bit-identical whichever simulator drives it.
type Metrics struct {
	n     int
	steps uint64    // time units simulated, per replica
	sys   []sysCell // per replica, indexed [r]
	ind   []indCell // per (replica, process), indexed [r*n + pid]
	// windowStart is the step of the last ResetMetrics.
	windowStart uint64
}

// sysCell is one replica's system-wide metric state, packed into one
// cache line (40-byte Summary + three words). lastComp doubles as the
// primed flag: steps are 1-based at completion time, so lastComp == 0
// means no completion has been recorded in the current metrics window.
type sysCell struct {
	gaps        stats.Summary
	lastComp    uint64
	total       uint64 // completions since construction
	windowTotal uint64 // total at the start of the metrics window
}

// indCell is the per-(replica, process) metric state, packed into
// exactly one cache line so recording a completion touches a single
// line instead of one per field array. lastComp doubles as the primed
// flag, as in sysCell.
type indCell struct {
	gaps        stats.Summary
	lastComp    uint64
	maxGap      uint64
	completions uint64
}

func newMetrics(k, n int) Metrics {
	return Metrics{n: n, sys: make([]sysCell, k), ind: make([]indCell, k*n)}
}

// recordCompletion books a completion by process pid of replica r at
// the current (1-based) step.
func (m *Metrics) recordCompletion(r, pid int) {
	s := &m.sys[r]
	c := &m.ind[r*m.n+pid]
	c.completions++
	s.total++

	if s.lastComp != 0 {
		s.gaps.Add(float64(m.steps - s.lastComp))
	}
	s.lastComp = m.steps

	if c.lastComp != 0 {
		gap := m.steps - c.lastComp
		c.gaps.Add(float64(gap))
		if gap > c.maxGap {
			c.maxGap = gap
		}
	}
	c.lastComp = m.steps
}

// K returns the replica count.
func (m *Metrics) K() int { return len(m.sys) }

// N returns the number of processes per replica.
func (m *Metrics) N() int { return m.n }

// Steps returns the number of time units simulated (per replica).
func (m *Metrics) Steps() uint64 { return m.steps }

// ResetMetrics discards the statistics gathered so far (warmup) in
// every replica while keeping the simulation state: gap statistics
// restart, completion counts carry on. Subsequent latency estimates
// describe only the post-reset window, approximating the stationary
// regime.
func (m *Metrics) ResetMetrics() {
	for r := range m.sys {
		s := &m.sys[r]
		s.gaps, s.lastComp, s.windowTotal = stats.Summary{}, 0, s.total
	}
	for i := range m.ind {
		c := &m.ind[i]
		c.gaps, c.lastComp, c.maxGap = stats.Summary{}, 0, 0
	}
	m.windowStart = m.steps
}

func (m *Metrics) checkReplica(r int) error {
	if r < 0 || r >= len(m.sys) {
		return fmt.Errorf("%w: %d of %d", ErrBadReplica, r, len(m.sys))
	}
	return nil
}

// cell returns replica r's state for pid, range-checking both.
func (m *Metrics) cell(r, pid int) (*indCell, error) {
	if err := m.checkReplica(r); err != nil {
		return nil, err
	}
	if pid < 0 || pid >= m.n {
		return nil, fmt.Errorf("machine: pid %d out of range", pid)
	}
	return &m.ind[r*m.n+pid], nil
}

// lane returns replica r's per-process cells.
func (m *Metrics) lane(r int) []indCell { return m.ind[r*m.n : (r+1)*m.n] }

// SystemLatency returns replica r's mean number of steps between
// consecutive completions (gap estimator), an error if fewer than two
// completions were observed in the metrics window.
func (m *Metrics) SystemLatency(r int) (float64, error) {
	if err := m.checkReplica(r); err != nil {
		return 0, err
	}
	if m.sys[r].gaps.N() == 0 {
		return 0, ErrNoCompletions
	}
	return m.sys[r].gaps.Mean(), nil
}

// SystemLatencyRatio returns replica r's steps/completions over the
// metrics window (ratio estimator).
func (m *Metrics) SystemLatencyRatio(r int) (float64, error) {
	if err := m.checkReplica(r); err != nil {
		return 0, err
	}
	comps := m.sys[r].total - m.sys[r].windowTotal
	if comps == 0 {
		return 0, ErrNoCompletions
	}
	return float64(m.steps-m.windowStart) / float64(comps), nil
}

// IndividualLatency returns replica r's mean number of steps between
// consecutive completions by process pid (gap estimator).
func (m *Metrics) IndividualLatency(r, pid int) (float64, error) {
	c, err := m.cell(r, pid)
	if err != nil {
		return 0, err
	}
	if c.gaps.N() == 0 {
		return 0, fmt.Errorf("%w: process %d", ErrNoCompletions, pid)
	}
	return c.gaps.Mean(), nil
}

// MeanIndividualLatency averages replica r's individual latency
// across the processes that completed at least two invocations; it
// returns an error if none did.
func (m *Metrics) MeanIndividualLatency(r int) (float64, error) {
	if err := m.checkReplica(r); err != nil {
		return 0, err
	}
	var sum float64
	count := 0
	lane := m.lane(r)
	for pid := range lane {
		if lane[pid].gaps.N() == 0 {
			continue
		}
		sum += lane[pid].gaps.Mean()
		count++
	}
	if count == 0 {
		return 0, ErrNoCompletions
	}
	return sum / float64(count), nil
}

// MaxIndividualGap returns replica r's largest inter-completion gap of
// process pid (in steps) within the metrics window.
func (m *Metrics) MaxIndividualGap(r, pid int) (uint64, error) {
	c, err := m.cell(r, pid)
	if err != nil {
		return 0, err
	}
	return c.maxGap, nil
}

// CompletionRate returns replica r's completions per step over the
// metrics window.
func (m *Metrics) CompletionRate(r int) float64 {
	steps := m.steps - m.windowStart
	if steps == 0 {
		return 0
	}
	return float64(m.sys[r].total-m.sys[r].windowTotal) / float64(steps)
}

// FairnessIndex returns Jain's fairness index of replica r's
// per-process completion counts: (Σx)² / (n·Σx²), which is 1 for
// perfectly equal progress and 1/n when one process monopolises
// completions.
func (m *Metrics) FairnessIndex(r int) float64 {
	var sum, sumSq float64
	lane := m.lane(r)
	for pid := range lane {
		x := float64(lane[pid].completions)
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return math.NaN()
	}
	return sum * sum / (float64(m.n) * sumSq)
}

// TotalCompletions returns replica r's completed invocations since
// construction (warmup included).
func (m *Metrics) TotalCompletions(r int) uint64 { return m.sys[r].total }

// Completions returns a copy of replica r's per-process completion
// counts.
func (m *Metrics) Completions(r int) []uint64 {
	lane := m.lane(r)
	out := make([]uint64, len(lane))
	for pid := range lane {
		out[pid] = lane[pid].completions
	}
	return out
}

// StarvedProcesses returns the ids of replica r's processes with zero
// completions so far.
func (m *Metrics) StarvedProcesses(r int) []int {
	var out []int
	lane := m.lane(r)
	for pid := range lane {
		if lane[pid].completions == 0 {
			out = append(out, pid)
		}
	}
	return out
}
