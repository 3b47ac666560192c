package server

import (
	"sync"
	"sync/atomic"
	"time"

	"hsfq/internal/tenantsched"
)

// ErrQueueFull rejects a submission when the submitting tenant's admission
// quota is exhausted. Handlers translate it to 429 + Retry-After: shedding
// the excess request outright keeps queueing delay bounded for everyone
// already admitted, instead of degrading all requests together. It aliases
// tenantsched.ErrShed, so errors.As can still recover the *ShedError with
// the tenant's own backlog and retry estimate.
var ErrQueueFull = tenantsched.ErrShed

// ErrDraining rejects submissions once Close has begun.
var ErrDraining = tenantsched.ErrDraining

// pool is a fixed set of worker goroutines consuming a multi-tenant
// request queue whose dispatch order is a weighted hierarchical SFQ tree
// (internal/tenantsched) rather than a single FIFO channel. Submit never
// blocks: a request is either admitted (queued under its tenant) or
// refused with ErrQueueFull/ErrDraining, so admission control happens at
// the door — and per tenant — rather than by silent queueing. Each
// worker measures its task's wall-clock service time and charges it back
// to the tenant's class, which is what advances the tree's virtual time.
type pool struct {
	q       *tenantsched.Queue
	workers int
	depth   int
	wg      sync.WaitGroup

	inFlight atomic.Int64
	done     atomic.Int64
}

// newPool starts workers goroutines consuming a tenant-scheduled queue.
// depth is the per-tenant fallback quota; with no policy (all traffic on
// the default tenant) it reproduces the old global FIFO's admission
// behaviour exactly.
func newPool(workers, depth int, policy *tenantsched.Policy) *pool {
	p := &pool{
		q:       tenantsched.NewQueue(policy, tenantsched.Options{Workers: workers, FallbackQuota: depth}),
		workers: workers,
		depth:   depth,
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for {
				task, finish, ok := p.q.Next()
				if !ok {
					return
				}
				p.inFlight.Add(1)
				start := time.Now()
				reply := task()
				finish(time.Since(start))
				p.inFlight.Add(-1)
				p.done.Add(1)
				// Counted first, replied second: a /metrics read made
				// after the response already sees this task completed.
				if reply != nil {
					reply()
				}
			}
		}()
	}
	return p
}

// Submit enqueues f under the tenant's class without blocking. A worker
// runs f, records its completion, then calls the reply f returned.
func (p *pool) Submit(tenant, class string, f tenantsched.Task) error {
	return p.q.Submit(tenant, class, f)
}

// SetPolicy hot-swaps tenant weights and quotas.
func (p *pool) SetPolicy(pol *tenantsched.Policy) { p.q.SetPolicy(pol) }

// Queue exposes the scheduling queue for metrics snapshots.
func (p *pool) Queue() *tenantsched.Queue { return p.q }

// Depth is the number of admitted tasks not yet picked up by a worker.
func (p *pool) Depth() int { return p.q.Backlog() }

// Capacity is the per-tenant fallback admission quota (the old global
// queue size; kept under its original metrics name for compatibility).
func (p *pool) Capacity() int { return p.depth }

// InFlight is the number of tasks currently executing.
func (p *pool) InFlight() int64 { return p.inFlight.Load() }

// Done is the number of tasks completed since the pool started.
func (p *pool) Done() int64 { return p.done.Load() }

// Workers is the pool size.
func (p *pool) Workers() int { return p.workers }

// Close stops admission, runs everything already queued, and waits for
// the workers to finish — the drain step of graceful shutdown. Safe to
// call more than once.
func (p *pool) Close() {
	p.q.Close()
	p.wg.Wait()
}
