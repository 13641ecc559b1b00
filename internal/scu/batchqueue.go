package scu

import (
	"fmt"

	"pwf/internal/machine"
)

// queueBatchCell is the per-(replica, process) state of the batched
// Michael–Scott queue: the scalar QueueProc's locals packed into 40
// bytes (the scalar value local is a write-only log input and is
// dropped).
type queueBatchCell struct {
	head int64
	tail int64
	next int64
	seq  int64
	slot int32
	pc   int8
	_    [3]byte
}

// QueueBatch is K replicas of the Michael–Scott queue workload in
// struct-of-arrays form: dense K-vectors for the head and tail
// registers, replica-major node registers and pool metadata, and one
// cell per (replica, process). Each replica's pool carries the extra
// initial-dummy slot (index n*poolSize), installed at construction
// exactly as the scalar Init does with Poke.
type QueueBatch struct {
	k, n, poolSize, slots int

	heads []int64          // [r]
	tails []int64          // [r]
	nodes []nodeCell       // [r*slots + slot]
	meta  []nodeMeta       // [r*slots + slot]
	cells []queueBatchCell // [r*n + pid]

	shadows    [][]int64 // [r]: shadow FIFO of refs
	violations []int     // [r]
	errs       []error   // [r]
}

var (
	_ machine.BatchGroup   = (*QueueBatch)(nil)
	_ machine.BatchChecker = (*QueueBatch)(nil)
)

// NewQueueBatch builds k replicas of the n-process Michael–Scott queue
// workload with poolSize node slots per process, each replica
// initialized with its own dummy node (head = tail = dummy, tag 1).
func NewQueueBatch(k, n, poolSize int) (*QueueBatch, error) {
	if err := batchShape(k, n); err != nil {
		return nil, err
	}
	if poolSize < 1 {
		return nil, fmt.Errorf("%w: poolSize=%d", ErrBadParams, poolSize)
	}
	slots, err := poolSlots(n, poolSize, 1) // +1: initial dummy
	if err != nil {
		return nil, err
	}
	g := &QueueBatch{
		k: k, n: n, poolSize: poolSize, slots: slots,
		heads:      make([]int64, k),
		tails:      make([]int64, k),
		nodes:      make([]nodeCell, k*slots),
		meta:       make([]nodeMeta, k*slots),
		cells:      make([]queueBatchCell, k*n),
		shadows:    make([][]int64, k),
		violations: make([]int, k),
		errs:       make([]error, k),
	}
	dummy := n * poolSize
	for r := 0; r < k; r++ {
		meta := g.meta[r*slots : (r+1)*slots]
		meta[dummy].tag = 1
		meta[dummy].live = true
		ref := packRef(meta[dummy].tag, dummy)
		g.heads[r] = ref
		g.tails[r] = ref
	}
	for i := range g.cells {
		g.cells[i].slot = -1
		g.cells[i].pc = int8(queueEnqWriteValue)
	}
	return g, nil
}

// K implements machine.BatchGroup.
func (g *QueueBatch) K() int { return g.k }

// N implements machine.BatchGroup.
func (g *QueueBatch) N() int { return g.n }

// queueCheck builds the post-run invariant error shared by the scalar
// and batched queue forms.
func queueCheck(violations int, err error) error {
	if violations != 0 || err != nil {
		return fmt.Errorf("scu: queue misbehaved: %d violations, %v", violations, err)
	}
	return nil
}

// CheckReplica implements machine.BatchChecker.
func (g *QueueBatch) CheckReplica(r int) error {
	return queueCheck(g.violations[r], g.errs[r])
}

// StepBatch implements machine.BatchGroup with the exact transition
// logic of QueueProc.Step on raw registers.
func (g *QueueBatch) StepBatch(pids []int32, done []bool) {
	for r := range pids {
		pid := int(pids[r])
		c := &g.cells[r*g.n+pid]
		meta := g.meta[r*g.slots : (r+1)*g.slots]
		nodes := g.nodes[r*g.slots : (r+1)*g.slots]
		completed := false

		switch queuePhase(c.pc) {
		case queueEnqWriteValue:
			if c.slot < 0 {
				c.slot = allocBatch(meta, pid*g.poolSize, g.poolSize)
				if c.slot < 0 {
					if g.errs[r] == nil {
						g.errs[r] = poolExhausted(queuePool, pid)
					}
					c.pc = int8(queueStuck)
					break
				}
				meta[c.slot].held++
			}
			c.seq++
			nodes[c.slot].value = proposal(pid, c.seq)
			c.pc = int8(queueEnqWriteNext)

		case queueEnqWriteNext:
			nodes[c.slot].next = 0
			c.pc = int8(queueEnqReadTail)

		case queueEnqReadTail:
			setRef(meta, &c.tail, g.tails[r])
			c.pc = int8(queueEnqReadTailNext)

		case queueEnqReadTailNext:
			setRef(meta, &c.next, nodes[refSlot(c.tail)].next)
			if c.next != 0 {
				c.pc = int8(queueEnqSwingStale)
			} else {
				c.pc = int8(queueEnqCASNext)
			}

		case queueEnqSwingStale:
			// Helping: the tail lags; try to advance it, then retry.
			if g.tails[r] == c.tail {
				g.tails[r] = c.next
			}
			c.pc = int8(queueEnqReadTail)

		case queueEnqCASNext:
			ref := packRef(meta[c.slot].tag, int(c.slot))
			if target := &nodes[refSlot(c.tail)].next; *target == 0 {
				*target = ref
				// Linearization point of the enqueue.
				g.shadows[r] = append(g.shadows[r], ref)
				meta[c.slot].live = true
				c.pc = int8(queueEnqSwingTail)
			} else {
				c.pc = int8(queueEnqReadTail)
			}

		case queueEnqSwingTail:
			if g.tails[r] == c.tail {
				g.tails[r] = packRef(meta[c.slot].tag, int(c.slot))
			}
			meta[c.slot].held--
			c.slot = -1
			setRef(meta, &c.head, 0)
			setRef(meta, &c.tail, 0)
			setRef(meta, &c.next, 0)
			c.pc = int8(queueDeqReadHead)
			completed = true

		case queueDeqReadHead:
			setRef(meta, &c.head, g.heads[r])
			c.pc = int8(queueDeqReadTail)

		case queueDeqReadTail:
			setRef(meta, &c.tail, g.tails[r])
			c.pc = int8(queueDeqReadHeadNext)

		case queueDeqReadHeadNext:
			setRef(meta, &c.next, nodes[refSlot(c.head)].next)
			if c.head == c.tail {
				if c.next == 0 {
					// Empty dequeue completes.
					setRef(meta, &c.head, 0)
					setRef(meta, &c.tail, 0)
					c.pc = int8(queueEnqWriteValue)
					completed = true
				} else {
					c.pc = int8(queueDeqSwingStale)
				}
			} else {
				c.pc = int8(queueDeqReadValue)
			}

		case queueDeqSwingStale:
			if g.tails[r] == c.tail {
				g.tails[r] = c.next
			}
			c.pc = int8(queueDeqReadHead)

		case queueDeqReadValue:
			_ = nodes[refSlot(c.next)].value
			c.pc = int8(queueDeqCASHead)

		case queueDeqCASHead:
			if g.heads[r] == c.head {
				g.heads[r] = c.next
				// Linearization point of the dequeue: the node holding
				// the value is next; the retired dummy head is freed.
				sh := g.shadows[r]
				if len(sh) == 0 || sh[0] != c.next {
					g.violations[r]++
				} else {
					g.shadows[r] = sh[1:]
				}
				meta[refSlot(c.head)].live = false
				setRef(meta, &c.head, 0)
				setRef(meta, &c.tail, 0)
				setRef(meta, &c.next, 0)
				c.pc = int8(queueEnqWriteValue)
				completed = true
			} else {
				c.pc = int8(queueDeqReadHead)
			}

		case queueStuck:
			// Pool exhausted: spin harmlessly, like the scalar.

		default:
			c.pc = int8(queueDeqReadHead)
		}
		done[r] = completed
	}
}
