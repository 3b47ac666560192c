package tenantsched

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// drainOne pulls a single request synchronously and completes it with the
// given service time, returning the dispatched task's effect.
func drainOne(t *testing.T, q *Queue, d time.Duration) {
	t.Helper()
	task, finish, ok := q.Next()
	if !ok {
		t.Fatal("Next returned ok=false with work queued")
	}
	task()
	finish(d)
}

func TestSingleTenantFIFOOrder(t *testing.T) {
	q := NewQueue(nil, Options{})
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		if err := q.Submit(DefaultTenant, "simulate", func() func() { got = append(got, i); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		drainOne(t, q, time.Millisecond)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("dispatch order %v, want FIFO", got)
		}
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestQuotaShedIsPerTenant(t *testing.T) {
	p := &Policy{Tenants: map[string]TenantPolicy{
		"small": {Quota: 2},
		"big":   {Quota: 8},
	}}
	q := NewQueue(p, Options{})
	for i := 0; i < 2; i++ {
		if err := q.Submit("small", "simulate", func() func() { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	err := q.Submit("small", "simulate", func() func() { return nil })
	if !errors.Is(err, ErrShed) {
		t.Fatalf("over-quota submit: %v, want ErrShed", err)
	}
	var se *ShedError
	if !errors.As(err, &se) {
		t.Fatalf("over-quota submit: %T, want *ShedError", err)
	}
	if se.Tenant != "small" || se.Backlog != 2 {
		t.Errorf("ShedError = %+v", se)
	}
	if se.RetryAfter < time.Second {
		t.Errorf("RetryAfter %v < 1s floor", se.RetryAfter)
	}
	// The other tenant's admission is untouched by small's full queue.
	if err := q.Submit("big", "simulate", func() func() { return nil }); err != nil {
		t.Fatalf("big tenant shed by small tenant's backlog: %v", err)
	}
	snaps, _ := q.Snapshot()
	if snaps["small"].Shed != 1 || snaps["small"].Submitted != 2 {
		t.Errorf("small snapshot %+v", snaps["small"])
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDrainSemantics(t *testing.T) {
	q := NewQueue(nil, Options{})
	ran := 0
	for i := 0; i < 3; i++ {
		if err := q.Submit(DefaultTenant, "simulate", func() func() { ran++; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	q.Close()
	if err := q.Submit(DefaultTenant, "simulate", func() func() { return nil }); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after Close: %v, want ErrDraining", err)
	}
	// Queued work still drains...
	for i := 0; i < 3; i++ {
		drainOne(t, q, time.Millisecond)
	}
	if ran != 3 {
		t.Fatalf("ran %d of 3 queued tasks", ran)
	}
	// ...then Next reports completion instead of blocking.
	if _, _, ok := q.Next(); ok {
		t.Fatal("Next returned work from a drained queue")
	}
}

func TestNextBlocksUntilSubmit(t *testing.T) {
	q := NewQueue(nil, Options{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		task, finish, ok := q.Next()
		if !ok {
			t.Error("Next returned ok=false before Close")
			return
		}
		task()
		finish(time.Millisecond)
	}()
	time.Sleep(10 * time.Millisecond) // let the consumer block
	if err := q.Submit(DefaultTenant, "simulate", func() func() { return nil }); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Next never woke after Submit")
	}
}

// TestWeightedDispatchRatio saturates two tenants with equal-cost requests
// at weights 3:1 and checks the dispatch counts land on the weight ratio
// to within the SFQ fairness bound (one request's worth per tenant).
func TestWeightedDispatchRatio(t *testing.T) {
	p := &Policy{Tenants: map[string]TenantPolicy{
		"gold":   {Weight: 3, Quota: 200},
		"bronze": {Weight: 1, Quota: 200},
	}}
	q := NewQueue(p, Options{})
	counts := map[string]int{}
	for i := 0; i < 100; i++ {
		if err := q.Submit("gold", "simulate", func() func() { counts["gold"]++; return nil }); err != nil {
			t.Fatal(err)
		}
		if err := q.Submit("bronze", "simulate", func() func() { counts["bronze"]++; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	const decisions = 80
	for i := 0; i < decisions; i++ {
		drainOne(t, q, time.Millisecond)
	}
	// Theorem 1 with unit requests: |n_gold/3 - n_bronze/1| <= 1/3 + 1,
	// so with 80 decisions gold gets 60 +- 1 and bronze 20 -+ 1.
	if g := counts["gold"]; g < 59 || g > 61 {
		t.Errorf("gold dispatched %d of %d, want 60 +- 1 (bronze %d)", g, decisions, counts["bronze"])
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSetPolicyReload(t *testing.T) {
	q := NewQueue(&Policy{Tenants: map[string]TenantPolicy{
		"a": {Weight: 1, Quota: 4},
	}}, Options{})
	if err := q.Submit("a", "simulate", func() func() { return nil }); err != nil {
		t.Fatal(err)
	}
	q.SetPolicy(&Policy{Tenants: map[string]TenantPolicy{
		"a": {Weight: 5, Quota: 1},
	}})
	snaps, _ := q.Snapshot()
	if snaps["a"].Weight != 5 || snaps["a"].Quota != 1 {
		t.Errorf("after reload: %+v", snaps["a"])
	}
	// The shrunk quota bites immediately: backlog 1 >= quota 1.
	if err := q.Submit("a", "simulate", func() func() { return nil }); !errors.Is(err, ErrShed) {
		t.Fatalf("submit over shrunk quota: %v, want ErrShed", err)
	}
	// New tenants are created under the new policy's defaults.
	q.SetPolicy(&Policy{DefaultWeight: 2})
	if err := q.Submit("fresh", "simulate", func() func() { return nil }); err != nil {
		t.Fatal(err)
	}
	snaps, _ = q.Snapshot()
	if snaps["fresh"].Weight != 2 {
		t.Errorf("fresh tenant weight %v, want new default 2", snaps["fresh"].Weight)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRetryAfterTracksTenantBacklog seeds the service-time estimate, then
// sheds from two tenants with different backlogs: the deeper backlog must
// get the longer Retry-After — the per-tenant derivation the global FIFO
// could not provide.
func TestRetryAfterTracksTenantBacklog(t *testing.T) {
	p := &Policy{Tenants: map[string]TenantPolicy{
		"deep":    {Quota: 8},
		"shallow": {Quota: 1},
	}}
	q := NewQueue(p, Options{Workers: 1})
	// One completed 2s request seeds the EWMA.
	if err := q.Submit("deep", "simulate", func() func() { return nil }); err != nil {
		t.Fatal(err)
	}
	drainOne(t, q, 2*time.Second)

	for i := 0; i < 8; i++ {
		if err := q.Submit("deep", "simulate", func() func() { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Submit("shallow", "simulate", func() func() { return nil }); err != nil {
		t.Fatal(err)
	}
	shedAfter := func(tenant string) time.Duration {
		err := q.Submit(tenant, "simulate", func() func() { return nil })
		var se *ShedError
		if !errors.As(err, &se) {
			t.Fatalf("submit %s: %v, want *ShedError", tenant, err)
		}
		return se.RetryAfter
	}
	deep, shallow := shedAfter("deep"), shedAfter("shallow")
	if deep <= shallow {
		t.Errorf("Retry-After deep(backlog 8)=%v <= shallow(backlog 1)=%v; not tracking tenant backlog", deep, shallow)
	}
	if deep < time.Second || deep > 60*time.Second {
		t.Errorf("Retry-After %v outside [1s, 60s]", deep)
	}
}

// TestConcurrentStress exercises the queue the way the serving pool does:
// several producers across several tenants against several consumers, with
// the race detector watching, then checks the tree and bookkeeping
// invariants and that every admitted request ran exactly once.
func TestConcurrentStress(t *testing.T) {
	p := &Policy{
		DefaultQuota: 1000,
		Tenants: map[string]TenantPolicy{
			"a": {Weight: 3},
			"b": {Weight: 1},
			"c": {Weight: 2},
		},
	}
	q := NewQueue(p, Options{Workers: 4})
	var executed sync.Map
	var admitted, shed int64
	var mu sync.Mutex

	var consumers sync.WaitGroup
	for w := 0; w < 4; w++ {
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			for {
				task, finish, ok := q.Next()
				if !ok {
					return
				}
				start := time.Now()
				task()
				finish(time.Since(start) + time.Microsecond)
			}
		}()
	}

	var producers sync.WaitGroup
	for pi, tenant := range []string{"a", "b", "c"} {
		for g := 0; g < 2; g++ {
			producers.Add(1)
			go func(tenant string, base int) {
				defer producers.Done()
				for i := 0; i < 50; i++ {
					id := base*1000 + i
					err := q.Submit(tenant, "simulate", func() func() {
						if _, dup := executed.LoadOrStore(id, true); dup {
							t.Errorf("task %d executed twice", id)
						}
						return nil
					})
					mu.Lock()
					if err != nil {
						shed++
					} else {
						admitted++
					}
					mu.Unlock()
				}
			}(tenant, pi*10+g)
		}
	}
	producers.Wait()
	q.Close()
	consumers.Wait()

	var ran int64
	executed.Range(func(_, _ any) bool { ran++; return true })
	if ran != admitted {
		t.Errorf("admitted %d but executed %d", admitted, ran)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	snaps, _ := q.Snapshot()
	var completed, snapShed int64
	for _, s := range snaps {
		completed += s.Completed
		snapShed += s.Shed
		if s.QueueDepth != 0 || s.InFlight != 0 {
			t.Errorf("post-drain snapshot %+v", s)
		}
	}
	if completed != admitted || snapShed != shed {
		t.Errorf("snapshot completed %d shed %d, want %d / %d", completed, snapShed, admitted, shed)
	}
	if q.Backlog() != 0 {
		t.Errorf("backlog %d after drain", q.Backlog())
	}
}
