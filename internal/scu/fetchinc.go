package scu

import (
	"fmt"

	"pwf/internal/machine"
	"pwf/internal/shmem"
)

// FetchInc is one process executing Algorithm 5: a lock-free
// fetch-and-increment counter built from the augmented CAS, which
// returns the current value of the register it attempts to modify
// (Section 7). The process keeps a local estimate v of the counter.
// Each loop iteration is one shared-memory step:
//
//   - CASGet(R, v, v+1) succeeds → the operation completes and the
//     process *keeps the current value* (it knows it installed v+1);
//   - it fails → the returned current value refreshes v, moving the
//     process from the Stale to the Current extended state.
//
// This is exactly the two-state-per-process structure of the chains
// in Section 7.1 (states Current and Stale), where the Read and
// OldCAS states of the universal construction coalesce.
type FetchInc struct {
	pid  int
	base int
	v    int64 // local estimate of R; persists across operations

	lastValue int64 // value returned by the last completed operation
	completed uint64
}

var _ machine.Process = (*FetchInc)(nil)

// FetchIncLayout is the number of registers a FetchInc object uses.
const FetchIncLayout = 1

// NewFetchInc builds one Algorithm 5 process on the counter register
// at base.
func NewFetchInc(pid, base int) (*FetchInc, error) {
	if pid < 0 {
		return nil, fmt.Errorf("%w: pid %d", ErrBadPID, pid)
	}
	if base < 0 {
		return nil, fmt.Errorf("%w: base %d", ErrBadParams, base)
	}
	return &FetchInc{pid: pid, base: base}, nil
}

// Step implements machine.Process.
func (p *FetchInc) Step(mem *shmem.Memory) bool {
	cur, ok := mem.CASGet(p.base, p.v, p.v+1)
	if ok {
		p.lastValue = p.v // fetch-and-inc returns the pre-increment value
		p.v++             // the winner holds the current value
		p.completed++
		return true
	}
	p.v = cur
	return false
}

// LastValue returns the value fetched by the most recent completed
// operation; valid once Completed() > 0.
func (p *FetchInc) LastValue() int64 { return p.lastValue }

// Completed returns the number of completed fetch-and-inc operations.
func (p *FetchInc) Completed() uint64 { return p.completed }

// Current reports whether the process's local estimate matches the
// register — the Current extended state of Section 7.1. It inspects
// memory without taking a step (for tests and chain cross-checks).
func (p *FetchInc) Current(mem *shmem.Memory) bool {
	return mem.Peek(p.base) == p.v
}

// NewFetchIncGroup builds n Algorithm 5 processes sharing the counter
// at register base.
func NewFetchIncGroup(n, base int) ([]machine.Process, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: n=%d", ErrBadParams, n)
	}
	return processes(n, func(pid int) (*FetchInc, error) { return NewFetchInc(pid, base) })
}
