package scu

import (
	"fmt"

	"pwf/internal/machine"
	"pwf/internal/shmem"
)

// Unbounded is one process executing Algorithm 1, the paper's witness
// that the *bounded* minimal-progress assumption in Theorem 3 is
// necessary: the algorithm is lock-free (some process always makes
// progress) but, under the uniform stochastic scheduler, it is not
// wait-free with high probability (Lemma 2). A process that loses a
// CAS with value v backs off for waitFactor·v read steps before
// retrying, so the current winner almost always wins again and every
// other process is starved with probability 1 − 2e^{−n}.
//
// Register layout: reg[base] is the CAS object C, reg[base+1] is the
// read register R. The paper's waitFactor is n²; tests may use a
// smaller factor to keep step counts manageable — the rich-get-richer
// dynamics are preserved for any factor ≫ n.
type Unbounded struct {
	pid        int
	base       int
	waitFactor int64

	v       int64 // local estimate of C; persists across operations
	waiting int64 // remaining backoff reads; 0 means try the CAS
}

var _ machine.Process = (*Unbounded)(nil)

// UnboundedLayout is the number of registers an Unbounded object uses.
const UnboundedLayout = 2

// NewUnbounded builds one Algorithm 1 process. waitFactor must be
// positive; the paper's choice is n².
func NewUnbounded(pid, base int, waitFactor int64) (*Unbounded, error) {
	if pid < 0 {
		return nil, fmt.Errorf("%w: pid %d", ErrBadPID, pid)
	}
	if base < 0 {
		return nil, fmt.Errorf("%w: base %d", ErrBadParams, base)
	}
	if waitFactor < 1 {
		return nil, fmt.Errorf("%w: waitFactor %d", ErrBadParams, waitFactor)
	}
	return &Unbounded{pid: pid, base: base, waitFactor: waitFactor}, nil
}

// Step implements machine.Process.
func (p *Unbounded) Step(mem *shmem.Memory) bool {
	if p.waiting > 0 {
		// Backoff loop: for j = 1 .. waitFactor·v do read(R).
		mem.Read(p.base + 1)
		p.waiting--
		return false
	}
	val, ok := mem.CASGet(p.base, p.v, p.v+1)
	if ok {
		// Success: the operation returns. Locals persist, so the next
		// operation's first CAS uses the value we just installed.
		p.v++
		return true
	}
	// Failure: adopt the current value and back off proportionally to
	// it (Algorithm 1 lines 8–9).
	p.v = val
	p.waiting = p.waitFactor * p.v
	return false
}

// NewUnboundedGroup builds n Algorithm 1 processes sharing one object
// at register base. A waitFactor of 0 selects the paper's n².
func NewUnboundedGroup(n, base int, waitFactor int64) ([]machine.Process, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: n=%d", ErrBadParams, n)
	}
	if waitFactor == 0 {
		waitFactor = int64(n) * int64(n)
	}
	return processes(n, func(pid int) (*Unbounded, error) { return NewUnbounded(pid, base, waitFactor) })
}
