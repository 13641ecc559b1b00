// Package scu implements the algorithms the paper analyses, as
// simulated processes for the machine package:
//
//   - Algorithm 2: the class SCU(q, s) — a q-step preamble followed by
//     a scan-and-validate loop over s registers ending in a CAS;
//   - Algorithm 3: the scan-validate pattern (SCU(0, s));
//   - Algorithm 4: parallel code (SCU(q, 0)) — q steps that always
//     complete, independent of other processes;
//   - Algorithm 1: the *unbounded* lock-free algorithm of Lemma 2,
//     which is not wait-free with high probability;
//   - Algorithm 5: the fetch-and-increment counter built from the
//     augmented CAS (Section 7);
//   - Treiber stack and Michael–Scott queue instances of the pattern,
//     with real data-structure semantics on simulated memory;
//   - an RCU cell (wait-free readers, scan-validate updaters);
//   - a Harris lock-free linked-list set and a hash set built from
//     list buckets (the structures behind the cited hash tables);
//   - Herlihy universal constructions over arbitrary sequential
//     Objects: the lock-free SCU form and a genuinely wait-free
//     announce-and-help form.
//
// Every concurrent structure carries Go-side shadow instrumentation
// that validates linearizability at each linearization point, and the
// test suite additionally enumerates EVERY two-process schedule up to
// a bounded depth (exhaustive_test.go).
//
// Every Step performs exactly one shared-memory operation, matching
// the model in which a scheduled process performs local computation
// and then issues a single step.
package scu

import (
	"errors"
	"fmt"

	"pwf/internal/machine"
	"pwf/internal/shmem"
)

// Construction errors.
var (
	ErrBadParams = errors.New("scu: invalid algorithm parameters")
	ErrBadPID    = errors.New("scu: invalid process id")
)

// proposal encodes a value that no two processes ever propose twice:
// the process id in the high bits and a per-process sequence number in
// the low bits (the "timestamp" the paper says makes proposals
// unique).
func proposal(pid int, seq int64) int64 {
	return (int64(pid+1) << 32) | (seq & 0xffffffff)
}

// processes builds the n processes of a group, the pid-th by mk(pid),
// stopping at the first construction error.
func processes[P machine.Process](n int, mk func(pid int) (P, error)) ([]machine.Process, error) {
	procs := make([]machine.Process, n)
	for pid := range procs {
		p, err := mk(pid)
		if err != nil {
			return nil, err
		}
		procs[pid] = p
	}
	return procs, nil
}

// scuPhase tracks where an SCU process is inside Algorithm 2.
type scuPhase int

const (
	phasePreamble scuPhase = iota + 1
	phaseScan
	phaseValidate
)

// SCU is one process executing Algorithm 2 with parameters (q, s): a
// preamble of q shared-memory steps, then a loop of s scan reads (the
// first of which reads the decision register R) followed by a
// validating CAS on R.
//
// Register layout, shared by all processes of one object:
//
//	reg[base+0]            decision register R
//	reg[base+1..base+s-1]  auxiliary scan registers R_1 .. R_{s-1}
//	reg[base+s]            preamble scratch register
//
// Layout size is SCULayout(s).
type SCU struct {
	pid  int
	q, s int
	base int

	phase    scuPhase
	step     int   // progress within the current phase
	snapshot int64 // value of R observed by the scan
	seq      int64 // per-process proposal sequence
}

var _ machine.Process = (*SCU)(nil)

// SCULayout returns the number of registers an SCU(q,s) object needs
// starting at its base register.
func SCULayout(s int) int { return s + 1 }

// NewSCU builds the SCU(q, s) process with the given id. q >= 0 and
// s >= 1 are required (s counts the scan reads including the read of
// R, as in Section 5). base is the object's first register.
func NewSCU(pid, q, s, base int) (*SCU, error) {
	if pid < 0 {
		return nil, fmt.Errorf("%w: pid %d", ErrBadPID, pid)
	}
	if q < 0 || s < 1 {
		return nil, fmt.Errorf("%w: q=%d s=%d (need q >= 0, s >= 1)", ErrBadParams, q, s)
	}
	if base < 0 {
		return nil, fmt.Errorf("%w: base %d", ErrBadParams, base)
	}
	p := &SCU{pid: pid, q: q, s: s, base: base}
	p.reset()
	return p, nil
}

func (p *SCU) reset() {
	if p.q > 0 {
		p.phase = phasePreamble
	} else {
		p.phase = phaseScan
	}
	p.step = 0
}

// Step implements machine.Process.
func (p *SCU) Step(mem *shmem.Memory) bool {
	switch p.phase {
	case phasePreamble:
		// Preamble steps perform auxiliary memory updates; they may
		// write anywhere except the decision register (Section 5). We
		// model them as writes to the object's scratch register.
		mem.Write(p.base+p.s, int64(p.pid))
		p.step++
		if p.step == p.q {
			p.phase = phaseScan
			p.step = 0
		}
		return false

	case phaseScan:
		if p.step == 0 {
			// First scan step reads the decision register R.
			p.snapshot = mem.Read(p.base)
		} else {
			// Remaining scan steps read R_1 .. R_{s-1}; their values
			// feed the locally computed proposal, which our encoding
			// makes unique regardless.
			mem.Read(p.base + p.step)
		}
		p.step++
		if p.step == p.s {
			p.phase = phaseValidate
			p.step = 0
		}
		return false

	case phaseValidate:
		p.seq++
		ok := mem.CAS(p.base, p.snapshot, proposal(p.pid, p.seq))
		if ok {
			p.reset()
			return true
		}
		// Validation failed: some other process changed R between the
		// scan and the CAS; restart the scan-validate loop (the
		// preamble is not re-run, per Algorithm 2).
		p.phase = phaseScan
		p.step = 0
		return false

	default:
		// Unreachable by construction; reset defensively.
		p.reset()
		return false
	}
}

// PID returns the process id.
func (p *SCU) PID() int { return p.pid }

// NewSCUGroup builds n SCU(q, s) processes sharing one object at
// register base, returned as machine.Process values.
func NewSCUGroup(n, q, s, base int) ([]machine.Process, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: n=%d", ErrBadParams, n)
	}
	return processes(n, func(pid int) (*SCU, error) { return NewSCU(pid, q, s, base) })
}

// Parallel is one process executing Algorithm 4: a method call that
// completes after the process performs q steps, irrespective of other
// processes' actions. Each step is modelled as a read of the scratch
// register.
type Parallel struct {
	q    int
	reg  int
	step int
}

var _ machine.Process = (*Parallel)(nil)

// NewParallel builds a parallel-code process with q >= 1 steps per
// operation, stepping on register reg.
func NewParallel(q, reg int) (*Parallel, error) {
	if q < 1 {
		return nil, fmt.Errorf("%w: q=%d (need q >= 1)", ErrBadParams, q)
	}
	if reg < 0 {
		return nil, fmt.Errorf("%w: reg %d", ErrBadParams, reg)
	}
	return &Parallel{q: q, reg: reg}, nil
}

// Step implements machine.Process.
func (p *Parallel) Step(mem *shmem.Memory) bool {
	mem.Read(p.reg)
	p.step++
	if p.step == p.q {
		p.step = 0
		return true
	}
	return false
}

// NewParallelGroup builds n parallel-code processes with q steps each,
// all stepping on register reg.
func NewParallelGroup(n, q, reg int) ([]machine.Process, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: n=%d", ErrBadParams, n)
	}
	return processes(n, func(pid int) (*Parallel, error) { return NewParallel(q, reg) })
}
