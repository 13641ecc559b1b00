package scu

import (
	"fmt"
	"math"

	"pwf/internal/shmem"
)

// List is a Harris lock-free linked-list set on simulated shared
// memory — the building block of the lock-free hash tables the paper
// cites (Fraser [6]). Deletion is two-phase: a node is logically
// deleted by CAS-marking its next pointer, then physically unlinked
// by any traversal that encounters it (helping). Every shared-memory
// access of the original algorithm — key reads, next reads, and the
// three kinds of CAS — costs one simulated step.
//
// Nodes live in the package's node slab (pool.go). A list reference is
// a slab reference shifted up by one for the mark bit (bit 0), so the
// simulated CAS never suffers ABA; reclamation uses the slab's
// precise-GC rule, mirroring the GC the real algorithm assumes.
//
// Correctness instrumentation (no simulated steps):
//   - a shadow set updated at each linearization point (insert's link
//     CAS, delete's mark CAS), plus per-key presence intervals so
//     contains/insert-false/delete-false results can be validated
//     against SOME point of their execution window (their
//     linearization point is internal to the search);
//   - Audit walks the real list and compares it with the shadow.
type List struct {
	nodePool
	base  int
	n     int
	procs []*ListProc

	shadow     map[int64]bool
	presence   map[int64][]interval
	violations int
	inserts    uint64
	deletes    uint64
	contains   uint64

	initialized bool
}

// interval is a presence window [From, To) in memory steps; To of the
// open interval is math.MaxUint64.
type interval struct {
	From, To uint64
}

// presenceKeep bounds the per-key interval history; generous so that
// even a long-running operation's window overlaps recorded intervals.
const presenceKeep = 64

// NewList builds a Harris list for n processes with poolSize node
// slots per process. Init must be called before the first step.
// Layout: ListLayout(n, poolSize) registers from base.
func NewList(n, poolSize, base int) (*List, error) {
	if n < 1 || poolSize < 1 {
		return nil, fmt.Errorf("%w: n=%d poolSize=%d", ErrBadParams, n, poolSize)
	}
	if base < 0 {
		return nil, fmt.Errorf("%w: base %d", ErrBadParams, base)
	}
	pool, err := newNodePool("list node pool of process", n, poolSize, 2) // + head and tail sentinels
	if err != nil {
		return nil, err
	}
	return &List{
		nodePool: pool,
		base:     base,
		n:        n,
		shadow:   make(map[int64]bool),
		presence: make(map[int64][]interval),
	}, nil
}

// ListLayout returns the register footprint: two registers (key,
// next) per slot including both sentinels.
func ListLayout(n, poolSize int) int { return 2 * (n*poolSize + 2) }

func (l *List) headSlot() int { return l.n * l.poolSize }
func (l *List) tailSlot() int { return l.n*l.poolSize + 1 }

func (l *List) keyReg(slot int) int  { return l.base + 2*slot }
func (l *List) nextReg(slot int) int { return l.base + 2*slot + 1 }

// nodeRef returns the unmarked list reference to slot: the slab
// reference shifted up past the mark bit.
func (l *List) nodeRef(slot int) int64 { return l.ref(slot) << 1 }

func listSlot(ref int64) int    { return refSlot(ref >> 1) }
func listMarked(ref int64) bool { return ref&1 == 1 }
func listMark(ref int64) int64  { return ref | 1 }
func listClean(ref int64) int64 { return ref &^ 1 }

// Init installs the sentinels: head(-inf) -> tail(+inf).
func (l *List) Init(mem *shmem.Memory) {
	head, tail := l.headSlot(), l.tailSlot()
	l.install(head)
	l.install(tail)
	mem.Poke(l.keyReg(head), math.MinInt64)
	mem.Poke(l.keyReg(tail), math.MaxInt64)
	mem.Poke(l.nextReg(head), l.nodeRef(tail))
	l.initialized = true
}

// Violations returns the number of results inconsistent with the
// shadow semantics.
func (l *List) Violations() int { return l.violations }

// Inserts, Deletes and Contains return completed-operation counts
// (successful or not).
func (l *List) Inserts() uint64   { return l.inserts }
func (l *List) Deletes() uint64   { return l.deletes }
func (l *List) ContainsN() uint64 { return l.contains }

// Err reports pool exhaustion.
func (l *List) Err() error { return l.err }

// Size returns the shadow set's cardinality.
func (l *List) Size() int { return len(l.shadow) }

func (l *List) heldByAny(slot int) bool {
	for _, p := range l.procs {
		if p.holds(slot) {
			return true
		}
	}
	return false
}

// onInsert records insert's linearization (the link CAS).
func (l *List) onInsert(key int64, ref int64, step uint64) {
	if l.shadow[key] {
		l.violations++ // duplicate key linked
	}
	l.shadow[key] = true
	l.live[listSlot(ref)] = true
	iv := l.presence[key]
	iv = append(iv, interval{From: step, To: math.MaxUint64})
	if len(iv) > presenceKeep {
		iv = iv[len(iv)-presenceKeep:]
	}
	l.presence[key] = iv
}

// onDelete records delete's linearization (the mark CAS). The node
// stays live until physically unlinked.
func (l *List) onDelete(key int64, step uint64) {
	if !l.shadow[key] {
		l.violations++ // deleted an absent key
	}
	delete(l.shadow, key)
	iv := l.presence[key]
	if len(iv) > 0 && iv[len(iv)-1].To == math.MaxUint64 {
		iv[len(iv)-1].To = step
	} else {
		l.violations++ // no open presence interval to close
	}
}

// onUnlink retires the physically removed chain from prev (exclusive)
// to stop (exclusive), discovered by peeking the memory.
func (l *List) onUnlink(mem *shmem.Memory, from, stop int64) {
	cur := listClean(from)
	for cur != 0 && cur != listClean(stop) {
		slot := listSlot(cur)
		if slot == l.tailSlot() || slot == l.headSlot() {
			return
		}
		l.live[slot] = false
		cur = listClean(mem.Peek(l.nextReg(slot)))
	}
}

// presentDuring reports whether key was in the set at any point of
// [from, to].
func (l *List) presentDuring(key int64, from, to uint64) bool {
	for _, iv := range l.presence[key] {
		if iv.From <= to && iv.To >= from {
			return true
		}
	}
	return false
}

// absentDuring reports whether key was absent at any point of
// [from, to].
func (l *List) absentDuring(key int64, from, to uint64) bool {
	// Absent at some point iff the presence intervals do not cover
	// [from, to] entirely. Check coverage greedily.
	covered := from
	for _, iv := range l.presence[key] {
		if iv.From <= covered && iv.To > covered {
			if iv.To > to {
				return false
			}
			covered = iv.To
		}
	}
	return true
}

// checkResult validates a completed operation's boolean result against
// the window [start, end].
func (l *List) checkResult(key int64, found bool, start, end uint64) {
	if found {
		if !l.presentDuring(key, start, end) {
			l.violations++
		}
	} else {
		if !l.absentDuring(key, start, end) {
			l.violations++
		}
	}
}

// Audit walks the physical list (via Peek, no steps) and verifies it
// is sorted, unmarked nodes match the shadow exactly, and the walk
// terminates.
func (l *List) Audit(mem *shmem.Memory) error {
	seen := make(map[int64]bool)
	cur := listClean(mem.Peek(l.nextReg(l.headSlot())))
	prevKey := int64(math.MinInt64)
	for hops := 0; ; hops++ {
		if hops > len(l.live)+4 {
			return fmt.Errorf("scu: list walk did not terminate")
		}
		slot := listSlot(cur)
		if slot == l.tailSlot() {
			break
		}
		key := mem.Peek(l.keyReg(slot))
		next := mem.Peek(l.nextReg(slot))
		if !listMarked(next) {
			if key <= prevKey {
				return fmt.Errorf("scu: list keys out of order: %d after %d", key, prevKey)
			}
			prevKey = key
			if !l.shadow[key] {
				return fmt.Errorf("scu: key %d reachable but not in shadow", key)
			}
			seen[key] = true
		}
		cur = listClean(next)
	}
	for key := range l.shadow {
		if !seen[key] {
			return fmt.Errorf("scu: key %d in shadow but not reachable unmarked", key)
		}
	}
	return nil
}
