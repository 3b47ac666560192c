package server

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"hsfq/internal/tenantsched"
)

// TestPoolAdmission: with 1 worker and a fallback quota of 1, the third
// concurrent submission (all default-tenant, the header-less path) must
// be refused with ErrQueueFull, and admitted work must still complete —
// exactly the old global-FIFO shed behaviour.
func TestPoolAdmission(t *testing.T) {
	p := newPool(1, 1, nil)
	started := make(chan struct{})
	release := make(chan struct{})
	var ran atomic.Int64

	// First task occupies the worker...
	if err := p.Submit(tenantsched.DefaultTenant, "simulate", func() func() { close(started); <-release; ran.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	<-started
	// ...second fills the tenant's queue...
	if err := p.Submit(tenantsched.DefaultTenant, "simulate", func() func() { ran.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if p.Depth() != 1 || p.Capacity() != 1 {
		t.Errorf("depth=%d cap=%d", p.Depth(), p.Capacity())
	}
	// ...third is shed.
	if err := p.Submit(tenantsched.DefaultTenant, "simulate", func() func() { return nil }); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: %v, want ErrQueueFull", err)
	}
	if got := p.InFlight(); got != 1 {
		t.Errorf("in-flight %d", got)
	}
	close(release)
	p.Close() // drains the queued task
	if got := ran.Load(); got != 2 {
		t.Errorf("ran %d tasks, want 2", got)
	}
	if p.Done() != 2 {
		t.Errorf("done %d", p.Done())
	}
}

// TestPoolDrain: Close must wait for queued work, refuse new work, and be
// idempotent.
func TestPoolDrain(t *testing.T) {
	p := newPool(2, 8, nil)
	var ran atomic.Int64
	for i := 0; i < 8; i++ {
		if err := p.Submit(tenantsched.DefaultTenant, "simulate", func() func() { time.Sleep(time.Millisecond); ran.Add(1); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	if got := ran.Load(); got != 8 {
		t.Errorf("drained %d of 8 tasks", got)
	}
	if err := p.Submit(tenantsched.DefaultTenant, "simulate", func() func() { return nil }); !errors.Is(err, ErrDraining) {
		t.Errorf("post-close submit: %v, want ErrDraining", err)
	}
	p.Close() // second close is a no-op
}

// TestPoolTenantIsolation: one tenant's full quota must not shed another
// tenant's submissions, and dispatch under contention must favour the
// heavier tenant in weight proportion.
func TestPoolTenantIsolation(t *testing.T) {
	pol := &tenantsched.Policy{Tenants: map[string]tenantsched.TenantPolicy{
		"noisy": {Weight: 1, Quota: 2},
		"quiet": {Weight: 1, Quota: 2},
	}}
	p := newPool(1, 4, pol)
	started := make(chan struct{})
	release := make(chan struct{})
	if err := p.Submit("noisy", "simulate", func() func() { close(started); <-release; return nil }); err != nil {
		t.Fatal(err)
	}
	<-started
	for i := 0; i < 2; i++ {
		if err := p.Submit("noisy", "simulate", func() func() { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Submit("noisy", "simulate", func() func() { return nil }); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-quota noisy submit: %v, want ErrQueueFull", err)
	}
	// noisy's full queue is invisible to quiet.
	if err := p.Submit("quiet", "simulate", func() func() { return nil }); err != nil {
		t.Fatalf("quiet submission shed by noisy tenant: %v", err)
	}
	close(release)
	p.Close()
}

// TestPoolCountsBeforeReply: a task's reply runs only once the pool and
// the tenant queue have counted the task complete, so whoever the reply
// wakes (an HTTP handler, then a /metrics reader) sees it counted.
func TestPoolCountsBeforeReply(t *testing.T) {
	p := newPool(1, 4, nil)
	defer p.Close()
	type counts struct{ inFlight, done, completed int64 }
	seen := make(chan counts, 1)
	err := p.Submit(tenantsched.DefaultTenant, "simulate", func() func() {
		return func() {
			tenants, _ := p.Queue().Snapshot()
			seen <- counts{p.InFlight(), p.Done(), tenants[tenantsched.DefaultTenant].Completed}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := <-seen; got != (counts{inFlight: 0, done: 1, completed: 1}) {
		t.Errorf("counters seen by the reply: %+v, want the task counted complete", got)
	}
}
