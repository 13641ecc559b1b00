package sweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"pwf/internal/machine"
	"pwf/internal/rng"
	"pwf/internal/sched"
	"pwf/internal/scu"
	"pwf/internal/shmem"
)

// WorkloadKind names a simulated algorithm family.
type WorkloadKind string

// The supported workload kinds, mirroring the algorithm catalogue of
// cmd/pwfsim.
const (
	SCU         WorkloadKind = "scu"         // Algorithm 2, SCU(q, s)
	Parallel    WorkloadKind = "parallel"    // Algorithm 4, q-step parallel code
	FetchInc    WorkloadKind = "fetchinc"    // Algorithm 5, augmented-CAS counter
	Unbounded   WorkloadKind = "unbounded"   // Algorithm 1, unbounded lock-free
	Stack       WorkloadKind = "stack"       // Treiber stack
	Queue       WorkloadKind = "queue"       // Michael–Scott queue
	RCU         WorkloadKind = "rcu"         // read-mostly RCU-style workload
	List        WorkloadKind = "list"        // Harris-style ordered list
	HashSet     WorkloadKind = "hashset"     // striped hash set
	LFUniversal WorkloadKind = "lfuniversal" // lock-free universal construction
	WFUniversal WorkloadKind = "wfuniversal" // wait-free universal construction
)

// Workload is a declarative description of the simulated algorithm of
// one job. The zero value of each parameter selects the documented
// default, so Workload values can be written as literals, compared,
// and serialized.
type Workload struct {
	Kind WorkloadKind `json:"kind"`
	// Q is the preamble length (SCU) or the steps per operation
	// (Parallel).
	Q int `json:"q,omitempty"`
	// S is the scan length (SCU).
	S int `json:"s,omitempty"`
	// WaitFactor scales the losers' wait loop of Algorithm 1
	// (Unbounded); 0 selects the paper's n².
	WaitFactor int64 `json:"wait_factor,omitempty"`
	// PoolSize is the per-process node pool of the data-structure
	// workloads (Stack, Queue, RCU, List, HashSet, WFUniversal);
	// 0 selects 64 (32 for HashSet, 8 for WFUniversal).
	PoolSize int `json:"pool_size,omitempty"`
}

// Size bounds on one job, fixed above every size the repository runs
// (the largest is n = 4096 with the default pool of 64) so that no
// grid can allocate beyond them through its shape alone.
const (
	maxProcesses = 1 << 16
	// maxScan bounds the SCU scan length S, one register each.
	maxScan = 1 << 22
	// maxSlots bounds the node slots of one job's pools, sentinels
	// and every hash bucket included: past scu.MaxSlots, node
	// references alias slots.
	maxSlots = scu.MaxSlots
	// maxTickets bounds a lottery's ticket total, which each draw
	// takes as an int range and must not overflow.
	maxTickets = 1 << 40
)

// hashBuckets is the HashSet workload's fixed bucket count.
const hashBuckets = 8

// Validate reports whether the workload is well-formed for n
// processes.
func (w Workload) Validate(n int) error {
	if n < 1 {
		return fmt.Errorf("sweep: workload %q needs n >= 1, got %d", w.Kind, n)
	}
	if n > maxProcesses {
		return fmt.Errorf("sweep: workload %q needs n <= %d, got %d", w.Kind, maxProcesses, n)
	}
	switch w.Kind {
	case SCU, Parallel, FetchInc, Unbounded, Stack, Queue, RCU, List,
		HashSet, LFUniversal, WFUniversal:
	default:
		return fmt.Errorf("sweep: unknown workload kind %q", w.Kind)
	}
	switch {
	case w.Kind == SCU && (w.Q < 0 || w.S < 1):
		return fmt.Errorf("sweep: scu needs Q >= 0 and S >= 1, got Q=%d S=%d", w.Q, w.S)
	case w.Kind == Parallel && w.Q < 1:
		return errors.New("sweep: parallel code needs Q >= 1")
	case w.Kind == Unbounded && w.WaitFactor < 0:
		return fmt.Errorf("sweep: negative wait factor %d", w.WaitFactor)
	case w.PoolSize < 0:
		return fmt.Errorf("sweep: negative pool size %d", w.PoolSize)
	case w.Kind == WFUniversal && w.PoolSize == 1:
		return errors.New("sweep: wfuniversal needs PoolSize >= 2")
	case w.S > maxScan:
		return fmt.Errorf("sweep: scan length S=%d exceeds %d", w.S, maxScan)
	case w.slots(n) > maxSlots:
		return fmt.Errorf("sweep: %s with %d processes × pool %d needs more than %d node slots",
			w.Kind, n, w.pool(), maxSlots)
	}
	return nil
}

// slots returns the node slots the workload's pools hold for n
// processes, 0 for kinds without a pool. A count past maxSlots may be
// reported as any value past it.
func (w Workload) slots(n int) int {
	owners, extra, copies := n, 0, 1
	switch w.Kind {
	case Stack:
	case Queue, WFUniversal: // the initial node
		extra = 1
	case RCU:
		owners = n - rcuReaders(n)
	case List: // head and tail sentinels
		extra = 2
	case HashSet: // one list per bucket
		extra, copies = 2, hashBuckets
	default:
		return 0
	}
	if w.pool() > maxSlots/owners {
		return maxSlots + 1
	}
	return copies * (owners*w.pool() + extra)
}

// pool returns the configured pool size or the kind's default, the
// one place the defaults documented on PoolSize are stated.
func (w Workload) pool() int {
	switch {
	case w.PoolSize > 0:
		return w.PoolSize
	case w.Kind == HashSet:
		return 32
	case w.Kind == WFUniversal:
		return 8
	}
	return 64
}

// rcuReaders is the RCU workload's read-mostly split of n processes:
// about 3/4 readers, always at least one writer.
func rcuReaders(n int) int { return n - 1 - (n-1)/4 }

// built is an assembled workload: the simulated memory, the process
// group, and an optional post-run invariant check (data-structure
// workloads verify linearizability witnesses after the run).
type built struct {
	mem   *shmem.Memory
	procs []machine.Process
	check func() error
}

// build assembles the workload for n processes: it constructs the
// kind's shared structure, allocates its registers with one shmem.New,
// installs the structure's initial nodes, and builds the process
// group.
func (w Workload) build(n int) (built, error) {
	var (
		layout int
		init   func(*shmem.Memory)
		group  func() ([]machine.Process, error)
		check  func() error
		err    error
	)
	pool := w.pool()
	switch w.Kind {
	case SCU:
		layout = scu.SCULayout(w.S)
		group = func() ([]machine.Process, error) { return scu.NewSCUGroup(n, w.Q, w.S, 0) }
	case Parallel:
		layout = 1
		group = func() ([]machine.Process, error) { return scu.NewParallelGroup(n, w.Q, 0) }
	case FetchInc:
		layout = scu.FetchIncLayout
		group = func() ([]machine.Process, error) { return scu.NewFetchIncGroup(n, 0) }
	case Unbounded:
		layout = scu.UnboundedLayout
		group = func() ([]machine.Process, error) { return scu.NewUnboundedGroup(n, 0, w.WaitFactor) }
	case Stack:
		var st *scu.Stack
		st, err = scu.NewStack(n, pool, 0)
		layout, group, check = scu.StackLayout(n, pool), st.Processes, st.Check
	case Queue:
		var qu *scu.Queue
		qu, err = scu.NewQueue(n, pool, 0)
		layout, init, group, check = scu.QueueLayout(n, pool), qu.Init, qu.Processes, qu.Check
	case RCU:
		readers := rcuReaders(n)
		var r *scu.RCU
		r, err = scu.NewRCU(n, readers, pool, 0)
		layout, group, check = scu.RCULayout(n-readers, pool), r.Processes, r.Check
	case List:
		var l *scu.List
		l, err = scu.NewList(n, pool, 0)
		layout, init = scu.ListLayout(n, pool), l.Init
		group = func() ([]machine.Process, error) { return l.Processes(32) } // keys 1..32
	case HashSet:
		var h *scu.HashSet
		h, err = scu.NewHashSet(n, hashBuckets, pool, 0)
		layout, init = scu.HashSetLayout(n, hashBuckets, pool), h.Init
		group = func() ([]machine.Process, error) { return h.Processes(64) } // keys 1..64
	case LFUniversal:
		var u *scu.LFUniversal
		u, err = scu.NewLFUniversal(scu.CounterObject{}, n, 0)
		layout, check = scu.LFUniversalLayout, u.Check
		group = func() ([]machine.Process, error) { return u.Processes(incrementBy1) }
	case WFUniversal:
		var u *scu.WFUniversal
		u, err = scu.NewWFUniversal(scu.CounterObject{}, n, pool, 0)
		layout, init = scu.WFUniversalLayout(n, pool), u.Init
		group = func() ([]machine.Process, error) { return u.Processes(incrementBy1) }
	default:
		return built{}, fmt.Errorf("sweep: unknown workload kind %q", w.Kind)
	}
	// A failed constructor leaves its structure nil: the method values
	// bound above are never called.
	if err != nil {
		return built{}, err
	}
	mem, err := shmem.New(layout)
	if err != nil {
		return built{}, err
	}
	if init != nil {
		init(mem)
	}
	procs, err := group()
	return built{mem: mem, procs: procs, check: check}, err
}

// incrementBy1 is the operation stream of the universal-construction
// workloads: every process applies +1 to the shared counter.
func incrementBy1(pid int, seq int64) int64 { return 1 }

// SchedKind names a scheduler family.
type SchedKind string

// The supported scheduler kinds.
const (
	SchedUniform    SchedKind = "uniform"    // the paper's uniform stochastic scheduler
	SchedSticky     SchedKind = "sticky"     // Markov-modulated, reschedules with prob. Rho
	SchedRoundRobin SchedKind = "roundrobin" // deterministic fair baseline
	SchedLottery    SchedKind = "lottery"    // ticket-based lottery scheduling
	SchedWeighted   SchedKind = "weighted"   // fixed arbitrary distribution
	SchedPhased     SchedKind = "phased"     // cyclic time-varying weighted phases
	SchedAdversary  SchedKind = "adversary"  // singles out Victim, θ = 0
)

// PhaseSpec is one segment of a phased schedule: the per-process
// weights and the segment length in steps.
type PhaseSpec struct {
	// Weights gives each process's scheduling weight in this phase;
	// all must be strictly positive.
	Weights []float64 `json:"weights"`
	// Steps is the phase length; must be >= 1.
	Steps uint64 `json:"steps"`
}

// SchedulerSpec is a declarative description of a scheduler, buildable
// for any n and seed. The zero value is the uniform scheduler.
//
// SchedulerSpec has two interchangeable JSON forms: the object form
// ({"kind":"sticky","rho":0.9}) and the compact string form
// ("sticky:0.9"), which is exactly the CLI grammar of ParseScheduler.
// Marshaling always emits the object form (the canonical wire
// encoding); Unmarshal accepts either.
type SchedulerSpec struct {
	Kind SchedKind `json:"kind,omitempty"`
	// Rho is the stickiness in [0, 1) (Sticky only).
	Rho float64 `json:"rho,omitempty"`
	// Tickets are the per-process lottery tickets (Lottery only); nil
	// gives every process one ticket.
	Tickets []int `json:"tickets,omitempty"`
	// Weights are the per-process scheduling weights (Weighted only);
	// nil gives every process weight 1 (i.e. uniform).
	Weights []float64 `json:"weights,omitempty"`
	// Phases are the cyclic schedule segments (Phased only).
	Phases []PhaseSpec `json:"phases,omitempty"`
	// Victim is the process the adversary singles out (Adversary only).
	Victim int `json:"victim,omitempty"`
}

// Validate reports whether the spec is well-formed for n processes.
func (s SchedulerSpec) Validate(n int) error {
	switch s.Kind {
	case "", SchedUniform, SchedRoundRobin:
		return nil
	case SchedSticky:
		if s.Rho < 0 || s.Rho >= 1 || math.IsNaN(s.Rho) {
			return fmt.Errorf("sweep: sticky rho %v out of [0, 1)", s.Rho)
		}
		return nil
	case SchedLottery:
		if s.Tickets != nil && len(s.Tickets) != n {
			return fmt.Errorf("sweep: %d tickets for %d processes", len(s.Tickets), n)
		}
		total := 0
		for i, t := range s.Tickets {
			if t < 1 {
				return fmt.Errorf("sweep: lottery ticket %d for process %d must be positive", t, i)
			}
			if t > maxTickets-total {
				return fmt.Errorf("sweep: lottery tickets total more than %d", maxTickets)
			}
			total += t
		}
		return nil
	case SchedWeighted:
		if s.Weights != nil && len(s.Weights) != n {
			return fmt.Errorf("sweep: %d weights for %d processes", len(s.Weights), n)
		}
		for i, w := range s.Weights {
			if !(w > 0) || math.IsInf(w, 1) {
				return fmt.Errorf("sweep: weight %v for process %d must be strictly positive and finite", w, i)
			}
		}
		return nil
	case SchedPhased:
		if len(s.Phases) == 0 {
			return errors.New("sweep: phased scheduler needs at least one phase")
		}
		for pi, ph := range s.Phases {
			if len(ph.Weights) != n {
				return fmt.Errorf("sweep: phase %d has %d weights for %d processes", pi, len(ph.Weights), n)
			}
			if ph.Steps < 1 {
				return fmt.Errorf("sweep: phase %d has zero length", pi)
			}
			for i, w := range ph.Weights {
				if !(w > 0) || math.IsInf(w, 1) {
					return fmt.Errorf("sweep: phase %d weight %v for process %d must be strictly positive and finite", pi, w, i)
				}
			}
		}
		return nil
	case SchedAdversary:
		if s.Victim < 0 || s.Victim >= n {
			return fmt.Errorf("sweep: adversary victim %d out of range [0, %d)", s.Victim, n)
		}
		return nil
	default:
		return fmt.Errorf("sweep: unknown scheduler kind %q", s.Kind)
	}
}

// build constructs the scheduler for n processes, drawing randomness
// from seed.
func (s SchedulerSpec) build(n int, seed uint64) (sched.Scheduler, error) {
	switch s.Kind {
	case "", SchedUniform:
		return sched.NewUniform(n, rng.New(seed))
	case SchedRoundRobin:
		return sched.NewRoundRobin(n)
	case SchedSticky:
		return sched.NewSticky(n, s.Rho, rng.New(seed))
	case SchedLottery:
		return sched.NewLottery(orOnes(s.Tickets, n), rng.New(seed))
	case SchedWeighted:
		return sched.NewWeighted(orOnes(s.Weights, n), rng.New(seed))
	case SchedPhased:
		return sched.NewPhased(n, s.phases(), rng.New(seed))
	case SchedAdversary:
		return sched.NewAdversarial(n, sched.SingleOut(s.Victim))
	default:
		return nil, fmt.Errorf("sweep: unknown scheduler kind %q", s.Kind)
	}
}

// orOnes resolves an optional per-process vector of lottery tickets
// or weights: nil gives every one of the n processes a 1.
func orOnes[T int | float64](v []T, n int) []T {
	if v != nil {
		return v
	}
	v = make([]T, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// phases converts the phased spec's segments to sched.Phase.
func (s SchedulerSpec) phases() []sched.Phase {
	out := make([]sched.Phase, len(s.Phases))
	for i, ph := range s.Phases {
		out[i] = sched.Phase{Weights: ph.Weights, Steps: ph.Steps}
	}
	return out
}

// String renders the spec in the shared scheduler grammar (e.g.
// "uniform", "sticky:0.9", "lottery:1,2,4", "phased:3,1@50/1,3@50").
// The rendering round-trips: ParseScheduler(s.String()) reproduces s.
func (s SchedulerSpec) String() string {
	switch s.Kind {
	case "", SchedUniform:
		return string(SchedUniform)
	case SchedSticky:
		return fmt.Sprintf("sticky:%g", s.Rho)
	case SchedLottery:
		if s.Tickets == nil {
			return string(SchedLottery)
		}
		parts := make([]string, len(s.Tickets))
		for i, t := range s.Tickets {
			parts[i] = strconv.Itoa(t)
		}
		return "lottery:" + strings.Join(parts, ",")
	case SchedWeighted:
		if s.Weights == nil {
			return string(SchedWeighted)
		}
		return "weighted:" + joinFloats(s.Weights)
	case SchedPhased:
		parts := make([]string, len(s.Phases))
		for i, ph := range s.Phases {
			parts[i] = fmt.Sprintf("%s@%d", joinFloats(ph.Weights), ph.Steps)
		}
		return "phased:" + strings.Join(parts, "/")
	case SchedAdversary:
		return fmt.Sprintf("adversary:%d", s.Victim)
	default:
		return string(s.Kind)
	}
}

func joinFloats(fs []float64) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = strconv.FormatFloat(f, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

// UnmarshalJSON accepts the object form or the compact string form
// ("sticky:0.9"), the latter decoded through ParseScheduler so the
// CLI flag grammar and the wire format are one grammar.
func (s *SchedulerSpec) UnmarshalJSON(b []byte) error {
	trimmed := strings.TrimSpace(string(b))
	if strings.HasPrefix(trimmed, `"`) {
		var name string
		if err := json.Unmarshal(b, &name); err != nil {
			return err
		}
		spec, err := ParseScheduler(name)
		if err != nil {
			return err
		}
		*s = spec
		return nil
	}
	// plain decodes without recursing into this method.
	type plain SchedulerSpec
	var p plain
	if err := json.Unmarshal(b, &p); err != nil {
		return err
	}
	*s = SchedulerSpec(p)
	return nil
}

// ParseScheduler parses the shared scheduler grammar used by the CLI
// -sched flags and the JSON string form of SchedulerSpec:
//
//	uniform                      the paper's uniform scheduler
//	roundrobin                   deterministic fair baseline
//	sticky:<rho>                 Markov-modulated, rho in [0, 1)
//	lottery                      one ticket per process
//	lottery:<t1>,<t2>,...        explicit tickets (fixes n)
//	weighted                     weight 1 per process
//	weighted:<w1>,<w2>,...       explicit weights (fixes n)
//	phased:<w..>@<steps>/...     cyclic phases, e.g. phased:3,1@50/1,3@50
//	adversary:<victim>           singles out one process, θ = 0
func ParseScheduler(name string) (SchedulerSpec, error) {
	kind, arg, hasArg := strings.Cut(name, ":")
	switch SchedKind(kind) {
	case SchedUniform, SchedRoundRobin:
		if hasArg {
			return SchedulerSpec{}, fmt.Errorf("sweep: scheduler %q takes no argument", kind)
		}
		return SchedulerSpec{Kind: SchedKind(kind)}, nil
	case SchedSticky:
		if !hasArg {
			return SchedulerSpec{}, errors.New(`sweep: sticky needs a stickiness, e.g. "sticky:0.9"`)
		}
		rho, err := strconv.ParseFloat(arg, 64)
		if err != nil {
			return SchedulerSpec{}, fmt.Errorf("sweep: parse sticky rho: %w", err)
		}
		if rho < 0 || rho >= 1 || math.IsNaN(rho) {
			return SchedulerSpec{}, fmt.Errorf("sweep: sticky rho %v out of [0, 1)", rho)
		}
		return SchedulerSpec{Kind: SchedSticky, Rho: rho}, nil
	case SchedLottery:
		if !hasArg {
			return SchedulerSpec{Kind: SchedLottery}, nil
		}
		fields := strings.Split(arg, ",")
		tickets := make([]int, len(fields))
		for i, f := range fields {
			t, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return SchedulerSpec{}, fmt.Errorf("sweep: parse lottery ticket %q: %w", f, err)
			}
			if t < 1 {
				return SchedulerSpec{}, fmt.Errorf("sweep: lottery ticket %d must be positive", t)
			}
			tickets[i] = t
		}
		return SchedulerSpec{Kind: SchedLottery, Tickets: tickets}, nil
	case SchedWeighted:
		if !hasArg {
			return SchedulerSpec{Kind: SchedWeighted}, nil
		}
		weights, err := parseWeights(arg)
		if err != nil {
			return SchedulerSpec{}, err
		}
		return SchedulerSpec{Kind: SchedWeighted, Weights: weights}, nil
	case SchedPhased:
		if !hasArg || arg == "" {
			return SchedulerSpec{}, errors.New(`sweep: phased needs phases, e.g. "phased:3,1@50/1,3@50"`)
		}
		segs := strings.Split(arg, "/")
		phases := make([]PhaseSpec, len(segs))
		for i, seg := range segs {
			ws, stepsStr, ok := strings.Cut(seg, "@")
			if !ok {
				return SchedulerSpec{}, fmt.Errorf("sweep: phase %q needs the form <weights>@<steps>", seg)
			}
			weights, err := parseWeights(ws)
			if err != nil {
				return SchedulerSpec{}, fmt.Errorf("sweep: phase %d: %w", i, err)
			}
			steps, err := strconv.ParseUint(stepsStr, 10, 64)
			if err != nil {
				return SchedulerSpec{}, fmt.Errorf("sweep: parse phase %d length %q: %w", i, stepsStr, err)
			}
			if steps < 1 {
				return SchedulerSpec{}, fmt.Errorf("sweep: phase %d has zero length", i)
			}
			phases[i] = PhaseSpec{Weights: weights, Steps: steps}
		}
		return SchedulerSpec{Kind: SchedPhased, Phases: phases}, nil
	case SchedAdversary:
		if !hasArg {
			return SchedulerSpec{}, errors.New(`sweep: adversary needs a victim, e.g. "adversary:0"`)
		}
		victim, err := strconv.Atoi(arg)
		if err != nil {
			return SchedulerSpec{}, fmt.Errorf("sweep: parse adversary victim: %w", err)
		}
		return SchedulerSpec{Kind: SchedAdversary, Victim: victim}, nil
	default:
		return SchedulerSpec{}, fmt.Errorf("sweep: unknown scheduler %q", name)
	}
}

// ParseSchedulerList parses the -scheds flags of the CLIs: schedulers
// in the ParseScheduler grammar, separated by commas or semicolons. A
// comma starts a new entry only when what follows is empty or begins
// with a letter, as every scheduler name does, so the commas inside an
// entry's own arguments stay with it: "lottery:1,2,uniform" is two
// entries and "phased:3,1@50/1,3@50" is one.
func ParseSchedulerList(list string) ([]SchedulerSpec, error) {
	var out []SchedulerSpec
	for _, group := range strings.Split(list, ";") {
		start := 0
		for i := 0; i <= len(group); i++ {
			if i < len(group) && (group[i] != ',' || !startsName(group[i+1:])) {
				continue
			}
			spec, err := ParseScheduler(strings.TrimSpace(group[start:i]))
			if err != nil {
				return nil, err
			}
			out = append(out, spec)
			start = i + 1
		}
	}
	return out, nil
}

// startsName reports whether the rest of a scheduler list after a
// comma is empty or begins with a letter.
func startsName(rest string) bool {
	rest = strings.TrimSpace(rest)
	return rest == "" || ('a' <= rest[0] && rest[0] <= 'z') || ('A' <= rest[0] && rest[0] <= 'Z')
}

// parseWeights parses a comma-separated list of strictly positive
// finite floats.
func parseWeights(s string) ([]float64, error) {
	fields := strings.Split(s, ",")
	weights := make([]float64, len(fields))
	for i, f := range fields {
		w, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("sweep: parse weight %q: %w", f, err)
		}
		if !(w > 0) || math.IsInf(w, 1) {
			return nil, fmt.Errorf("sweep: weight %v must be strictly positive and finite", w)
		}
		weights[i] = w
	}
	return weights, nil
}
