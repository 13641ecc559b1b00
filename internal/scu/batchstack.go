package scu

import (
	"fmt"

	"pwf/internal/machine"
)

// stackBatchCell is the per-(replica, process) state of the batched
// Treiber stack: the scalar StackProc's locals packed into 32 bytes so
// a step touches at most two cache lines of per-process state.
type stackBatchCell struct {
	top  int64
	next int64
	seq  int64
	slot int32
	pc   int8
	_    [3]byte
}

// StackBatch is K replicas of the Treiber stack workload in
// struct-of-arrays form: per-replica top registers in a dense K-vector,
// node registers and pool metadata in replica-major contiguous blocks,
// and one 32-byte cell per (replica, process). The precise-GC
// allocation scan uses the refcounted pool of pool.go instead of
// the scalar O(n) heldByAny walk; everything else transitions exactly
// like StackProc.Step, including the quirks the allocator depends on
// (a completed empty pop leaves the stale next reference in place, and
// a pop holds its top reference through the value read).
type StackBatch struct {
	k, n, poolSize, slots int

	tops  []int64          // [r]: the top register of replica r
	nodes []nodeCell       // [r*slots + slot]: value/next registers
	meta  []nodeMeta       // [r*slots + slot]: tag/held/live
	cells []stackBatchCell // [r*n + pid]

	shadows    [][]int64 // [r]: shadow stack, bottom to top
	violations []int     // [r]
	errs       []error   // [r]: first structural error
}

var (
	_ machine.BatchGroup   = (*StackBatch)(nil)
	_ machine.BatchChecker = (*StackBatch)(nil)
)

// NewStackBatch builds k replicas of the n-process Treiber stack
// workload with poolSize node slots per process, every replica on its
// own zeroed register block.
func NewStackBatch(k, n, poolSize int) (*StackBatch, error) {
	if err := batchShape(k, n); err != nil {
		return nil, err
	}
	if poolSize < 1 {
		return nil, fmt.Errorf("%w: poolSize=%d", ErrBadParams, poolSize)
	}
	slots, err := poolSlots(n, poolSize, 0)
	if err != nil {
		return nil, err
	}
	g := &StackBatch{
		k: k, n: n, poolSize: poolSize, slots: slots,
		tops:       make([]int64, k),
		nodes:      make([]nodeCell, k*slots),
		meta:       make([]nodeMeta, k*slots),
		cells:      make([]stackBatchCell, k*n),
		shadows:    make([][]int64, k),
		violations: make([]int, k),
		errs:       make([]error, k),
	}
	for i := range g.cells {
		g.cells[i].slot = -1
		g.cells[i].pc = int8(stackPushWriteValue)
	}
	return g, nil
}

// K implements machine.BatchGroup.
func (g *StackBatch) K() int { return g.k }

// N implements machine.BatchGroup.
func (g *StackBatch) N() int { return g.n }

// stackCheck builds the post-run invariant error shared by the scalar
// and batched stack forms.
func stackCheck(violations int, err error) error {
	if violations != 0 || err != nil {
		return fmt.Errorf("scu: stack misbehaved: %d violations, %v", violations, err)
	}
	return nil
}

// CheckReplica implements machine.BatchChecker.
func (g *StackBatch) CheckReplica(r int) error {
	return stackCheck(g.violations[r], g.errs[r])
}

// StepBatch implements machine.BatchGroup with the exact transition
// logic of StackProc.Step on raw registers.
func (g *StackBatch) StepBatch(pids []int32, done []bool) {
	for r := range pids {
		pid := int(pids[r])
		c := &g.cells[r*g.n+pid]
		meta := g.meta[r*g.slots : (r+1)*g.slots]
		nodes := g.nodes[r*g.slots : (r+1)*g.slots]
		completed := false

		switch stackPhase(c.pc) {
		case stackPushWriteValue:
			if c.slot < 0 {
				c.slot = allocBatch(meta, pid*g.poolSize, g.poolSize)
				if c.slot < 0 {
					if g.errs[r] == nil {
						g.errs[r] = poolExhausted(stackPool, pid)
					}
					c.pc = int8(stackStuck)
					break
				}
				meta[c.slot].held++
			}
			c.seq++
			nodes[c.slot].value = proposal(pid, c.seq)
			c.pc = int8(stackPushReadTop)

		case stackPushReadTop:
			setRef(meta, &c.top, g.tops[r])
			c.pc = int8(stackPushWriteNext)

		case stackPushWriteNext:
			nodes[c.slot].next = c.top
			c.pc = int8(stackPushCAS)

		case stackPushCAS:
			ref := packRef(meta[c.slot].tag, int(c.slot))
			if g.tops[r] == c.top {
				g.tops[r] = ref
				// Linearization: push onto the shadow, mark live.
				g.shadows[r] = append(g.shadows[r], ref)
				meta[c.slot].live = true
				meta[c.slot].held--
				c.slot = -1
				setRef(meta, &c.top, 0)
				c.pc = int8(stackPopReadTop)
				completed = true
			} else {
				c.pc = int8(stackPushReadTop)
			}

		case stackPopReadTop:
			setRef(meta, &c.top, g.tops[r])
			if c.top == 0 {
				// Empty pop completes; like the scalar, the stale next
				// reference is kept (it pins its slot until overwritten).
				c.pc = int8(stackPushWriteValue)
				completed = true
			} else {
				c.pc = int8(stackPopReadNext)
			}

		case stackPopReadNext:
			setRef(meta, &c.next, nodes[refSlot(c.top)].next)
			c.pc = int8(stackPopCAS)

		case stackPopCAS:
			if g.tops[r] == c.top {
				g.tops[r] = c.next
				// Linearization: check against and pop the shadow.
				sh := g.shadows[r]
				if len(sh) == 0 || sh[len(sh)-1] != c.top {
					g.violations[r]++
				} else {
					g.shadows[r] = sh[:len(sh)-1]
				}
				meta[refSlot(c.top)].live = false
				c.pc = int8(stackPopReadValue)
			} else {
				c.pc = int8(stackPopReadTop)
			}

		case stackPopReadValue:
			_ = nodes[refSlot(c.top)].value
			setRef(meta, &c.top, 0)
			setRef(meta, &c.next, 0)
			c.pc = int8(stackPushWriteValue)
			completed = true

		case stackStuck:
			// Pool exhausted: spin harmlessly, like the scalar.

		default:
			c.pc = int8(stackPushWriteValue)
		}
		done[r] = completed
	}
}
