package scu

import (
	"fmt"

	"pwf/internal/machine"
	"pwf/internal/shmem"
)

// Queue is a Michael–Scott lock-free queue [17] on simulated shared
// memory, with the helping step (swinging a lagging tail) intact. Its
// nodes live in the package's node slab (pool.go): tagged references
// keep the simulated CAS free of ABA, and reclamation is precise GC.
//
// A shadow FIFO updated at linearization points checks every dequeue;
// tests assert Violations() == 0.
//
// Register layout from base: head, tail, then two registers (value,
// next) per node slot, plus one extra slot for the initial dummy node.
type Queue struct {
	nodePool
	base  int
	n     int
	procs []*QueueProc

	shadow     []int64 // refs in FIFO order
	violations int
	enqueues   uint64
	dequeues   uint64
	emptyDeqs  uint64

	initialized bool
}

// NewQueue builds a Michael–Scott queue for n processes with poolSize
// node slots per process, occupying QueueLayout(n, poolSize) registers
// from base. Init must be called on the memory before the first step.
func NewQueue(n, poolSize, base int) (*Queue, error) {
	if n < 1 || poolSize < 1 {
		return nil, fmt.Errorf("%w: n=%d poolSize=%d", ErrBadParams, n, poolSize)
	}
	if base < 0 {
		return nil, fmt.Errorf("%w: base %d", ErrBadParams, base)
	}
	pool, err := newNodePool(queuePool, n, poolSize, 1) // +1: initial dummy
	if err != nil {
		return nil, err
	}
	return &Queue{nodePool: pool, base: base, n: n}, nil
}

// queuePool names the queue's pools in the exhaustion error.
const queuePool = "queue node pool of process"

// QueueLayout returns the register footprint: head + tail + 2 per slot
// (n*poolSize process slots plus the initial dummy).
func QueueLayout(n, poolSize int) int { return 2 + 2*(n*poolSize+1) }

// Init installs the initial dummy node; head = tail = dummy. It uses
// Poke (setup, not simulation steps).
func (q *Queue) Init(mem *shmem.Memory) {
	ref := q.install(q.dummySlot())
	mem.Poke(q.headReg(), ref)
	mem.Poke(q.tailReg(), ref)
	q.initialized = true
}

func (q *Queue) dummySlot() int        { return q.n * q.poolSize }
func (q *Queue) headReg() int          { return q.base }
func (q *Queue) tailReg() int          { return q.base + 1 }
func (q *Queue) valueReg(slot int) int { return q.base + 2 + 2*slot }
func (q *Queue) nextReg(slot int) int  { return q.base + 3 + 2*slot }

// Err reports the first structural error (pool exhaustion or missing
// Init), if any.
func (q *Queue) Err() error { return q.err }

// Check reports the post-run invariant error (linearizability
// violations or pool exhaustion), byte-identical to what the batched
// form's CheckReplica reports for the same run.
func (q *Queue) Check() error { return queueCheck(q.violations, q.err) }

// Violations returns the number of dequeues that disagreed with the
// shadow FIFO.
func (q *Queue) Violations() int { return q.violations }

// Length returns the queue length according to the shadow.
func (q *Queue) Length() int { return len(q.shadow) }

// Enqueues, Dequeues and EmptyDequeues return operation counts.
func (q *Queue) Enqueues() uint64      { return q.enqueues }
func (q *Queue) Dequeues() uint64      { return q.dequeues }
func (q *Queue) EmptyDequeues() uint64 { return q.emptyDeqs }

// heldByAny reports whether any registered process holds a local
// reference to slot.
func (q *Queue) heldByAny(slot int) bool {
	for _, p := range q.procs {
		if p.holds(slot) {
			return true
		}
	}
	return false
}

func (q *Queue) onEnqueue(ref int64) {
	q.shadow = append(q.shadow, ref)
	q.live[refSlot(ref)] = true
	q.enqueues++
}

// onDequeue is called when head swings from oldHead to newHead: the
// node now holding the dequeued value is newHead; the retired dummy
// oldHead becomes reclaimable.
func (q *Queue) onDequeue(oldHead, newHead int64) {
	if len(q.shadow) == 0 || q.shadow[0] != newHead {
		q.violations++
	} else {
		q.shadow = q.shadow[1:]
	}
	q.live[refSlot(oldHead)] = false
	q.dequeues++
}

// queuePhase is the per-process state machine position.
type queuePhase int

const (
	queueEnqWriteValue queuePhase = iota + 1
	queueEnqWriteNext
	queueEnqReadTail
	queueEnqReadTailNext
	queueEnqSwingStale
	queueEnqCASNext
	queueEnqSwingTail
	queueDeqReadHead
	queueDeqReadTail
	queueDeqReadHeadNext
	queueDeqSwingStale
	queueDeqReadValue
	queueDeqCASHead
	queueStuck
)

// QueueProc is one process running an alternating enqueue/dequeue
// workload against a Queue. Each Step is one shared-memory operation.
type QueueProc struct {
	q   *Queue
	pid int

	phase queuePhase
	slot  int
	tail  int64
	head  int64
	next  int64
	value int64
	seq   int64

	dequeued []int64
}

var _ machine.Process = (*QueueProc)(nil)

// Process builds the pid-th workload process; the first operation is
// an enqueue.
func (q *Queue) Process(pid int) (*QueueProc, error) {
	if pid < 0 || pid >= q.n {
		return nil, fmt.Errorf("%w: pid %d of %d", ErrBadPID, pid, q.n)
	}
	if !q.initialized {
		return nil, fmt.Errorf("%w: queue not initialized (call Init)", ErrBadParams)
	}
	p := &QueueProc{q: q, pid: pid, phase: queueEnqWriteValue, slot: -1}
	q.procs = append(q.procs, p)
	return p, nil
}

// holds reports whether the process's local variables reference slot.
func (p *QueueProc) holds(slot int) bool {
	if p.slot == slot {
		return true
	}
	for _, ref := range [...]int64{p.head, p.tail, p.next} {
		if ref != 0 && refSlot(ref) == slot {
			return true
		}
	}
	return false
}

// Processes builds all n workload processes.
func (q *Queue) Processes() ([]machine.Process, error) { return processes(q.n, q.Process) }

// Dequeued returns the values this process's dequeues returned, in
// order (0 entries for empty dequeues).
func (p *QueueProc) Dequeued() []int64 {
	out := make([]int64, len(p.dequeued))
	copy(out, p.dequeued)
	return out
}

// Step implements machine.Process. The enqueue path follows
// Michael–Scott: read tail; read tail.next; if next is non-null, help
// swing the tail and retry; else CAS tail.next from null to the new
// node; on success, swing tail (best effort) and complete. The
// dequeue path: read head; read tail; read head.next; if head == tail
// and next is null, the queue is empty; if head == tail with non-null
// next, help swing the tail; otherwise read the value out of next and
// CAS head forward.
func (p *QueueProc) Step(mem *shmem.Memory) bool {
	switch p.phase {
	case queueEnqWriteValue:
		if p.slot < 0 {
			p.slot = p.q.allocate(p.pid, p.q.heldByAny)
			if p.slot < 0 {
				p.phase = queueStuck
				return false
			}
		}
		p.seq++
		mem.Write(p.q.valueReg(p.slot), proposal(p.pid, p.seq))
		p.phase = queueEnqWriteNext
		return false

	case queueEnqWriteNext:
		mem.Write(p.q.nextReg(p.slot), 0)
		p.phase = queueEnqReadTail
		return false

	case queueEnqReadTail:
		p.tail = mem.Read(p.q.tailReg())
		p.phase = queueEnqReadTailNext
		return false

	case queueEnqReadTailNext:
		p.next = mem.Read(p.q.nextReg(refSlot(p.tail)))
		if p.next != 0 {
			p.phase = queueEnqSwingStale
			return false
		}
		p.phase = queueEnqCASNext
		return false

	case queueEnqSwingStale:
		// Helping: the tail lags; try to advance it, then retry.
		mem.CAS(p.q.tailReg(), p.tail, p.next)
		p.phase = queueEnqReadTail
		return false

	case queueEnqCASNext:
		ref := p.q.ref(p.slot)
		if mem.CAS(p.q.nextReg(refSlot(p.tail)), 0, ref) {
			// Linearization point of the enqueue.
			p.q.onEnqueue(ref)
			p.phase = queueEnqSwingTail
			return false
		}
		p.phase = queueEnqReadTail
		return false

	case queueEnqSwingTail:
		mem.CAS(p.q.tailReg(), p.tail, p.q.ref(p.slot))
		p.slot = -1
		p.head, p.tail, p.next = 0, 0, 0 // drop references for precise GC
		p.phase = queueDeqReadHead
		return true

	case queueDeqReadHead:
		p.head = mem.Read(p.q.headReg())
		p.phase = queueDeqReadTail
		return false

	case queueDeqReadTail:
		p.tail = mem.Read(p.q.tailReg())
		p.phase = queueDeqReadHeadNext
		return false

	case queueDeqReadHeadNext:
		p.next = mem.Read(p.q.nextReg(refSlot(p.head)))
		if p.head == p.tail {
			if p.next == 0 {
				// Empty dequeue completes.
				p.q.emptyDeqs++
				p.dequeued = append(p.dequeued, 0)
				p.head, p.tail = 0, 0 // drop references for precise GC
				p.phase = queueEnqWriteValue
				return true
			}
			p.phase = queueDeqSwingStale
			return false
		}
		p.phase = queueDeqReadValue
		return false

	case queueDeqSwingStale:
		mem.CAS(p.q.tailReg(), p.tail, p.next)
		p.phase = queueDeqReadHead
		return false

	case queueDeqReadValue:
		p.value = mem.Read(p.q.valueReg(refSlot(p.next)))
		p.phase = queueDeqCASHead
		return false

	case queueDeqCASHead:
		if mem.CAS(p.q.headReg(), p.head, p.next) {
			// Linearization point of the dequeue.
			p.q.onDequeue(p.head, p.next)
			p.dequeued = append(p.dequeued, p.value)
			p.head, p.tail, p.next = 0, 0, 0 // drop references for precise GC
			p.phase = queueEnqWriteValue
			return true
		}
		p.phase = queueDeqReadHead
		return false

	case queueStuck:
		mem.Read(p.q.headReg())
		return false

	default:
		p.phase = queueDeqReadHead
		mem.Read(p.q.headReg())
		return false
	}
}
