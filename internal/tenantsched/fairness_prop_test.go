// Property-based check that the serving queue inherits Theorem 1 from the
// tree it schedules with: for two tenants f and g continuously backlogged
// over any interval,
//
//	| W_f(t1,t2)/phi_f  -  W_g(t1,t2)/phi_g |  <=  l_f/phi_f + l_g/phi_g
//
// where W is the service time dispatched to the tenant's requests in the
// interval and l is the tenant's maximum single-request service time. The
// harness mirrors internal/sched/fairness_prop_test.go: seeded random
// weights and per-request costs, the bound checked over EVERY interval via
// the range of the prefix differences — but the system under test is the
// whole Queue (Submit/Next/finish), not a bare scheduler, so the dispatch
// protocol (dequeue-on-dispatch, charge-at-completion) is inside the loop.
package tenantsched

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

type tenantTrial struct {
	seed      int64
	wf, wg    float64
	lf, lg    int64 // max service nanoseconds per request
	decisions int
}

func newTenantTrial(seed int64) tenantTrial {
	rng := rand.New(rand.NewSource(seed))
	w := func() float64 { return math.Round((0.1+rng.Float64()*7.9)*100) / 100 }
	l := func() int64 { return 1 + rng.Int63n(2000) }
	return tenantTrial{
		seed: seed, wf: w(), wg: w(), lf: l(), lg: l(),
		decisions: 200 + rng.Intn(300),
	}
}

// driveQueue saturates tenants f and g (both backlogged for the whole
// run), dispatches tr.decisions requests through a single synchronous
// consumer charging random service times, and returns the worst interval
// gap in normalized service alongside the Theorem 1 bound built from the
// observed per-request maxima. It also returns each tenant's completed
// count for the equal-weight corollary.
func driveQueue(t *testing.T, q *Queue, tr tenantTrial) (gap, bound float64, nf, ng int) {
	t.Helper()
	rng := rand.New(rand.NewSource(tr.seed + 1))
	var last string
	for i := 0; i < tr.decisions+5; i++ {
		if err := q.Submit("f", "simulate", func() func() { last = "f"; return nil }); err != nil {
			t.Fatalf("submit f #%d: %v", i, err)
		}
		if err := q.Submit("g", "simulate", func() func() { last = "g"; return nil }); err != nil {
			t.Fatalf("submit g #%d: %v", i, err)
		}
	}
	var df, dg float64     // cumulative normalized service
	var maxLf, maxLg int64 // observed per-request maxima
	minDelta, maxDelta := 0.0, 0.0
	for i := 0; i < tr.decisions; i++ {
		task, finish, ok := q.Next()
		if !ok {
			t.Fatalf("decision %d: Next returned ok=false with both tenants backlogged", i)
		}
		task()
		var used int64
		switch last {
		case "f":
			used = 1 + rng.Int63n(tr.lf)
			df += float64(used) / tr.wf
			if used > maxLf {
				maxLf = used
			}
			nf++
		case "g":
			used = 1 + rng.Int63n(tr.lg)
			dg += float64(used) / tr.wg
			if used > maxLg {
				maxLg = used
			}
			ng++
		default:
			t.Fatalf("decision %d: dispatched task belongs to neither tenant", i)
		}
		finish(time.Duration(used))
		delta := df - dg
		if delta < minDelta {
			minDelta = delta
		}
		if delta > maxDelta {
			maxDelta = delta
		}
	}
	if maxLf == 0 || maxLg == 0 {
		t.Fatalf("a tenant was never dispatched (f %d, g %d of %d decisions)", nf, ng, tr.decisions)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatalf("post-run invariants: %v", err)
	}
	return maxDelta - minDelta, float64(maxLf)/tr.wf + float64(maxLg)/tr.wg, nf, ng
}

const tenantEps = 1e-6

func newTrialQueue(tr tenantTrial) *Queue {
	return NewQueue(&Policy{Tenants: map[string]TenantPolicy{
		"f": {Weight: tr.wf, Quota: 2 * (tr.decisions + 10)},
		"g": {Weight: tr.wg, Quota: 2 * (tr.decisions + 10)},
	}}, Options{Workers: 1})
}

func TestQueueFairnessBoundProperty(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		tr := newTenantTrial(seed)
		gap, bound, _, _ := driveQueue(t, newTrialQueue(tr), tr)
		if gap > bound+tenantEps {
			t.Errorf("trial %d (%+v): fairness gap %v exceeds Theorem 1 bound %v",
				seed, tr, gap, bound)
		}
	}
}

// TestEqualWeightCompletedCounts is the satellite's headline corollary:
// equal weights, saturating load, unit-cost requests — completed counts
// per tenant may differ by at most the SFQ prefix bound, which for unit
// requests at weight parity is l/phi + l/phi = 2 requests.
func TestEqualWeightCompletedCounts(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		tr := newTenantTrial(seed)
		tr.wf, tr.wg = 1, 1
		tr.lf, tr.lg = 1, 1 // every request costs exactly one unit
		_, _, nf, ng := driveQueue(t, newTrialQueue(tr), tr)
		if diff := nf - ng; diff < -2 || diff > 2 {
			t.Errorf("trial %d: completed counts %d vs %d differ by %d > prefix bound 2",
				seed, nf, ng, diff)
		}
	}
}
