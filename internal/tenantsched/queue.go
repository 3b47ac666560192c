package tenantsched

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"hsfq/internal/core"
	"hsfq/internal/sched"
	"hsfq/internal/sim"
)

// ErrShed is the sentinel a *ShedError matches with errors.Is: the
// submission was refused because the tenant's backlog is at its quota.
var ErrShed = errors.New("tenantsched: tenant queue full")

// ErrDraining rejects submissions once Close has begun.
var ErrDraining = errors.New("tenantsched: draining")

// ShedError reports a per-tenant admission refusal, with enough context
// for the serving layer to answer an honest per-tenant Retry-After: the
// refused tenant's own backlog and a wait estimate derived from it (and
// from the tenant's weight share and the observed mean service time) —
// not from any global queue depth.
type ShedError struct {
	Tenant  string
	Backlog int
	// RetryAfter estimates when a slot frees up: backlog x mean service
	// time over the tenant's share of the workers, clamped to [1s, 60s].
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("tenantsched: tenant %q queue full (%d queued, retry after %v)",
		e.Tenant, e.Backlog, e.RetryAfter)
}

// Is makes errors.Is(err, ErrShed) work.
func (e *ShedError) Is(target error) bool { return target == ErrShed }

// Options parameterizes a Queue.
type Options struct {
	// Workers is the number of concurrent consumers (the serving pool
	// size); it scales the Retry-After estimate. <= 0 means 1.
	Workers int
	// FallbackQuota is the per-tenant backlog cap used when neither the
	// tenant's entry nor the policy's default_quota sets one; <= 0 means
	// 64. A policy-less queue therefore sheds exactly like the global
	// FIFO of the same depth it replaced, because all traffic shares the
	// default tenant.
	FallbackQuota int
}

// Task is one admitted request. Running it does the request's work and
// returns the func that answers the requester, or nil. The consumer
// calls Next's finish before that reply, so a request already counts as
// completed when its requester hears back.
type Task func() (reply func())

// classQueue is one (tenant, endpoint class) FIFO, represented in the
// scheduling tree by a single thread attached to the tenant's leaf node.
type classQueue struct {
	tn     *tenant
	th     *sched.Thread
	fifo   []Task
	queued bool // thread currently in the structure's runnable set
}

// tenant is one scheduling class: a leaf node of the tree whose weight is
// the tenant's policy weight, plus admission and accounting state.
type tenant struct {
	name     string
	nodeID   core.NodeID
	node     *core.Node
	weight   float64
	quota    int
	backlog  int // queued across classes, excluding in-flight
	inflight int
	classes  map[string]*classQueue

	submitted, completed, shed int64
}

// Queue is a bounded multi-tenant request queue whose dispatch order is
// decided by a hierarchical SFQ tree: the root schedules tenant nodes by
// SFQ (weights from the policy), each tenant leaf schedules its endpoint
// classes by SFQ, and within a class requests are FIFO. Virtual time
// advances by measured request service time, charged at completion — the
// paper's "the length of the quantum is required only when it finishes
// execution", with a request's service time as the quantum.
//
// Concurrent dispatch closes each Pick's critical section with an
// immediate zero-work charge, the only charge shape that lets several of
// one tenant's requests be in service at once without distorting the
// tags: a class whose FIFO still holds requests stays in the runnable
// set with its start tag unchanged (for a continuing thread S equals F,
// so the zero charge is a tag no-op that merely refreshes the FIFO
// tie-break), while a class whose FIFO went empty leaves the runnable
// set exactly like a blocking thread. The measured service time is then
// charged at completion — the paper's deferred accounting — advancing
// the tenant's tags in proportion to service consumed over weight.
// Dequeue-and-re-enqueue at dispatch (the multicore machine's protocol)
// would be wrong here: re-entry stamps S = max(v, F), which strips a
// still-backlogged tenant of its weight advantage every dispatch and
// collapses weighted SFQ into round-robin.
type Queue struct {
	mu   sync.Mutex
	cond *sync.Cond

	st       *core.Structure
	pol      *Policy
	opts     Options
	tenants  map[string]*tenant
	byThread map[*sched.Thread]*classQueue
	nextID   int

	backlog int // total queued across tenants
	closed  bool

	start       time.Time
	meanService float64 // EWMA of service seconds, feeds Retry-After
}

// NewQueue builds a queue under the given policy (nil means the zero
// policy: open admission, weight 1, fallback quota).
func NewQueue(p *Policy, opts Options) *Queue {
	if p == nil {
		p = &Policy{}
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.FallbackQuota <= 0 {
		opts.FallbackQuota = 64
	}
	q := &Queue{
		st:       core.NewStructure(),
		pol:      p,
		opts:     opts,
		tenants:  make(map[string]*tenant),
		byThread: make(map[*sched.Thread]*classQueue),
		nextID:   1,
		start:    time.Now(),
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// clock is the "now" handed to the scheduling tree. SFQ is driven purely
// by virtual time, but the Scheduler contract carries real time, so pass
// the queue's monotonic age.
func (q *Queue) clock() sim.Time { return sim.Time(time.Since(q.start)) }

// tenantLocked returns (creating on first contact) the tenant's class
// state. New tenants enter the tree at S = max(v, 0): they cannot claim
// credit for service that predates their arrival.
func (q *Queue) tenantLocked(name string) *tenant {
	if tn, ok := q.tenants[name]; ok {
		return tn
	}
	id, err := q.st.MknodPath("/"+name, q.pol.weightOf(name), sched.NewSFQ(0))
	if err != nil {
		// Names were validated by Identify/ValidTenantName; a collision
		// here is a programming error.
		panic(fmt.Sprintf("tenantsched: mknod /%s: %v", name, err))
	}
	tn := &tenant{
		name:    name,
		nodeID:  id,
		node:    q.st.Node(id),
		weight:  q.pol.weightOf(name),
		quota:   q.pol.quotaOf(name, q.opts.FallbackQuota),
		classes: make(map[string]*classQueue),
	}
	q.tenants[name] = tn
	return tn
}

// classLocked returns (creating on first contact) the tenant's per-class
// FIFO and its thread in the tree.
func (q *Queue) classLocked(tn *tenant, class string) *classQueue {
	if cq, ok := tn.classes[class]; ok {
		return cq
	}
	th := sched.NewThread(q.nextID, tn.name+"/"+class, 1)
	q.nextID++
	if err := q.st.Attach(th, tn.nodeID); err != nil {
		panic(fmt.Sprintf("tenantsched: attach %s: %v", th, err))
	}
	cq := &classQueue{tn: tn, th: th}
	tn.classes[class] = cq
	q.byThread[th] = cq
	return cq
}

// Submit admits task into tenant's class FIFO, or refuses it without
// blocking: ErrDraining once Close has begun, or a *ShedError when the
// tenant's backlog is at its quota. Admission is strictly per tenant — a
// flooding tenant exhausts its own quota and nobody else's.
func (q *Queue) Submit(tenantName, class string, task Task) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrDraining
	}
	tn := q.tenantLocked(tenantName)
	if tn.backlog >= tn.quota {
		tn.shed++
		return &ShedError{Tenant: tenantName, Backlog: tn.backlog, RetryAfter: q.retryAfterLocked(tn)}
	}
	cq := q.classLocked(tn, class)
	cq.fifo = append(cq.fifo, task)
	tn.backlog++
	tn.submitted++
	q.backlog++
	if !cq.queued {
		q.st.Enqueue(cq.th, q.clock())
		cq.queued = true
	}
	q.cond.Signal()
	return nil
}

// retryAfterLocked estimates when the tenant will next have queue room:
// its backlog, drained at the tenant's weighted share of the worker pool,
// at the observed mean service time per request. Clamped to [1s, 60s]
// and rounded up to whole seconds (the Retry-After header granularity).
func (q *Queue) retryAfterLocked(tn *tenant) time.Duration {
	mean := q.meanService
	if mean <= 0 {
		return time.Second
	}
	var activeWeight float64
	for _, t := range q.tenants {
		if t.backlog > 0 || t.inflight > 0 || t == tn {
			activeWeight += t.weight
		}
	}
	share := tn.weight / activeWeight
	sec := float64(tn.backlog) * mean / (float64(q.opts.Workers) * share)
	sec = math.Ceil(sec)
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return time.Duration(sec) * time.Second
}

// Next blocks until a request is available (or the queue is closed and
// fully drained, in which case ok is false) and dispatches the one the
// SFQ tree orders first: the root picks the tenant with the minimum
// start tag, the tenant's leaf picks the class, the class FIFO yields
// its head. The returned finish func MUST be called exactly once with
// the request's measured service time, and before the task's reply; it
// performs the virtual-time charge that keeps the tree fair.
func (q *Queue) Next() (task Task, finish func(time.Duration), ok bool) {
	q.mu.Lock()
	for q.backlog == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.backlog == 0 {
		q.mu.Unlock()
		return nil, nil, false
	}
	now := q.clock()
	th := q.st.Pick(now)
	cq := q.byThread[th]
	task = cq.fifo[0]
	cq.fifo[0] = nil
	cq.fifo = cq.fifo[1:]
	cq.tn.backlog--
	q.backlog--
	// The zero-work charge ends the Pick critical section (so other
	// workers may Pick before this request completes) without moving any
	// tags: the class stays runnable at an unchanged start tag while its
	// FIFO holds more requests, and leaves the runnable set like a
	// blocking thread when it is out of work.
	still := len(cq.fifo) > 0
	q.st.Charge(th, 0, now, still)
	cq.queued = still
	cq.tn.inflight++
	q.mu.Unlock()
	return task, func(d time.Duration) { q.complete(cq, d) }, true
}

// complete charges the finished request's measured service time to its
// class thread, advancing the tenant's tags through the whole tree; this
// is the hsfq_update of the serving layer.
func (q *Queue) complete(cq *classQueue, d time.Duration) {
	used := sched.Work(d.Nanoseconds())
	if used < 1 {
		used = 1 // zero-length charges would stall virtual time
	}
	q.mu.Lock()
	now := q.clock()
	if cq.queued {
		q.st.Charge(cq.th, used, now, true)
	} else {
		// The FIFO went empty at dispatch (or drained since): re-enter
		// the runnable set just long enough to stamp the charge, the
		// same Enqueue+Charge step the multicore machine uses when a
		// dequeued thread's segment ends.
		q.st.Enqueue(cq.th, now)
		q.st.Charge(cq.th, used, now, false)
	}
	cq.tn.inflight--
	cq.tn.completed++
	s := d.Seconds()
	if q.meanService == 0 {
		q.meanService = s
	} else {
		q.meanService += 0.2 * (s - q.meanService)
	}
	q.mu.Unlock()
}

// Close stops admission and wakes every blocked Next. Consumers keep
// draining queued requests; once the backlog is empty Next returns
// ok=false. Safe to call more than once.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// Backlog is the number of admitted requests not yet dispatched.
func (q *Queue) Backlog() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.backlog
}

// SetPolicy swaps the policy: existing tenants take their new weights
// (effective at the next charge, exactly like hsfq_admin's weight
// change) and quotas; tenants first seen after the swap are created
// under the new policy. The caller validates the policy first.
func (q *Queue) SetPolicy(p *Policy) {
	if p == nil {
		p = &Policy{}
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.pol = p
	for name, tn := range q.tenants {
		if w := p.weightOf(name); w != tn.weight {
			// SetNodeWeight only fails for unknown nodes or w <= 0;
			// neither can happen here.
			if err := q.st.SetNodeWeight(tn.nodeID, w); err == nil {
				tn.weight = w
			}
		}
		tn.quota = p.quotaOf(name, q.opts.FallbackQuota)
	}
}

// CheckInvariants validates the scheduling tree's structural invariants
// plus the queue's own bookkeeping (backlog totals, queued flags); the
// race/property tests call it after workloads.
func (q *Queue) CheckInvariants() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.st.CheckInvariants(); err != nil {
		return err
	}
	total := 0
	for name, tn := range q.tenants {
		sum := 0
		for class, cq := range tn.classes {
			sum += len(cq.fifo)
			if cq.queued != (len(cq.fifo) > 0) {
				return fmt.Errorf("tenantsched: %s/%s queued=%v with %d queued requests",
					name, class, cq.queued, len(cq.fifo))
			}
		}
		if sum != tn.backlog {
			return fmt.Errorf("tenantsched: tenant %s backlog %d but %d queued requests", name, tn.backlog, sum)
		}
		total += sum
	}
	if total != q.backlog {
		return fmt.Errorf("tenantsched: global backlog %d but %d queued requests", q.backlog, total)
	}
	return nil
}

// TenantSnapshot is a point-in-time view of one tenant's scheduling
// state, for /metrics.
type TenantSnapshot struct {
	Weight    float64 `json:"weight"`
	Quota     int     `json:"quota"`
	Submitted int64   `json:"submitted"`
	Completed int64   `json:"completed"`
	Shed      int64   `json:"shed"`
	// QueueDepth is the tenant's queued (undispatched) backlog.
	QueueDepth int `json:"queue_depth"`
	InFlight   int `json:"in_flight"`
	// StartTag and FinishTag are the tenant node's SFQ tags in the
	// root's virtual-time domain (nanoseconds of service over weight).
	StartTag  float64 `json:"start_tag"`
	FinishTag float64 `json:"finish_tag"`
	// VirtualTimeLag is the root's virtual time minus the tenant's
	// finish tag: how far the tenant's accounted service trails the
	// tree. Busy tenants hover near zero; idle tenants fall behind
	// (large positive lag) and re-enter at the current virtual time.
	VirtualTimeLag float64 `json:"virtual_time_lag"`
}

// Snapshot returns every seen tenant's state plus the root's virtual
// time.
func (q *Queue) Snapshot() (map[string]TenantSnapshot, float64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	vt := q.st.Root().VirtualTime()
	out := make(map[string]TenantSnapshot, len(q.tenants))
	for name, tn := range q.tenants {
		start, finish := tn.node.Tags()
		out[name] = TenantSnapshot{
			Weight:         tn.weight,
			Quota:          tn.quota,
			Submitted:      tn.submitted,
			Completed:      tn.completed,
			Shed:           tn.shed,
			QueueDepth:     tn.backlog,
			InFlight:       tn.inflight,
			StartTag:       start,
			FinishTag:      finish,
			VirtualTimeLag: vt - finish,
		}
	}
	return out, vt
}
