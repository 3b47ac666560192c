// Package server implements hsfqd's serving layer: HTTP handlers that
// validate scenario and sweep requests through the simconfig
// Parse/Validate/Build pipeline, execute them on a shared bounded worker
// pool with queue-depth admission control and per-request deadlines, and
// serve repeated requests byte-identically from a content-addressed
// response cache.
//
// The cache is sound because the simulator is deterministic: a request's
// key is the SHA-256 of its canonical config and seed (sweep.JobKey), so
// two requests with the same key denote the same computation and must
// produce the same bytes. Config.VerifyFraction turns that argument into
// a runtime check by re-executing a sampled fraction of cache hits and
// comparing bytes.
//
// Admission control is load shedding, not backpressure: when the queue is
// full, new work is refused with 429 + Retry-After while admitted work
// keeps its latency, rather than every request degrading together.
//
// The worker pool's dispatch order is itself hierarchical SFQ
// (internal/tenantsched): requests are queued per tenant (X-Tenant
// header; header-less traffic is the "default" tenant) and dispatched by
// a weighted SFQ tree whose virtual time advances by measured request
// service time, so the daemon schedules its own serving traffic with the
// paper's algorithm. Admission quotas, shed decisions, and Retry-After
// estimates are per tenant; weights and quotas come from a JSON policy
// (Config.Policy, hot-swappable via SetPolicy on SIGHUP).
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hsfq/internal/simconfig"
	"hsfq/internal/sweep"
	"hsfq/internal/tenantsched"
)

// maxRequestBytes bounds request bodies; a scenario or sweep spec is KBs.
const maxRequestBytes = 1 << 20

// Config parameterizes a Server.
type Config struct {
	// Workers is the execution pool size; <= 0 means GOMAXPROCS.
	Workers int
	// QueueDepth is the admission queue capacity; <= 0 means 64.
	QueueDepth int
	// SweepWorkers bounds parallelism inside one sweep request (a sweep
	// occupies one pool slot and fans out internally); <= 0 means Workers.
	SweepWorkers int
	// CacheEntries caps the in-memory result cache; <= 0 means 1024.
	CacheEntries int
	// CacheBytes caps the cache's total body bytes; <= 0 means 64 MiB.
	CacheBytes int64
	// CacheDir, when non-empty, spills evicted entries to disk and serves
	// them back on memory misses. Created if missing.
	CacheDir string
	// VerifyFraction in (0,1] re-executes that fraction of cache hits and
	// compares bytes, checking the determinism the cache relies on.
	VerifyFraction float64
	// MaxBatch caps the number of jobs one POST /v1/jobs claim may carry;
	// <= 0 means 256.
	MaxBatch int
	// RequestTimeout is the per-request deadline covering queue wait and
	// execution; <= 0 means 30 s.
	RequestTimeout time.Duration
	// CheckpointDir, when non-empty, names a sweep.Store: simulate and
	// sweep executions resume from stored run prefixes when a request
	// extends the horizon of a previously served run, and store their own
	// final states. Response bytes are unchanged by the store — resume
	// equivalence — so it composes with the result cache and the mesh.
	CheckpointDir string
	// Policy sets per-tenant weights, admission quotas, and API keys for
	// the tenant-scheduled worker pool; nil is the open zero policy
	// (every tenant at weight 1, quota QueueDepth), under which
	// header-less traffic behaves exactly like the pre-tenant FIFO.
	Policy *tenantsched.Policy
	// TraceBytes, when positive, attaches a tracestream.Broadcaster to
	// every simulate and batch-job execution and serves the streams at
	// GET /v1/trace/{key}; the value caps one recording's frame bytes
	// (the digest always covers the full run). 0 disables tracing, which
	// keeps executions on the plain path.
	TraceBytes int
	// TraceCacheBytes caps the total frame bytes of finished recordings
	// retained for replay; <= 0 means 32 MiB. Oldest recordings are
	// evicted first.
	TraceCacheBytes int64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.SweepWorkers <= 0 {
		c.SweepWorkers = c.Workers
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	return c
}

// Server is the hsfqd HTTP service. It implements http.Handler; wire it
// into an http.Server to serve.
type Server struct {
	cfg   Config
	pool  *pool
	cache *Cache
	mux   *http.ServeMux
	ready atomic.Bool
	pol   atomic.Pointer[tenantsched.Policy]
	watch *watchHub

	simulateStats *endpointStats
	sweepStats    *endpointStats
	jobsStats     *endpointStats
	batchStats    *endpointStats

	tenantMu    sync.Mutex
	tenantStats map[string]*endpointStats

	shed      atomic.Int64
	coalesced atomic.Int64

	verifyRuns     atomic.Int64
	verifyFailures atomic.Int64
	verifySkipped  atomic.Int64
	verifyMu       sync.Mutex
	verifyRng      *rand.Rand
	verifySem      chan struct{}
	verifyWG       sync.WaitGroup

	// flights tracks in-progress computations by job key so concurrent
	// misses for the same key coalesce onto one execution.
	flightMu sync.Mutex
	flights  map[string]*flight

	// traces is the live/finished trace hub behind GET /v1/trace/{key};
	// nil when Config.TraceBytes is 0 (tracing disabled).
	traces     *traceHub
	traceStats *endpointStats
	diffStats  *endpointStats

	// streams counts each tenant's concurrent follow streams, capped by
	// the policy's streams settings.
	streamMu sync.Mutex
	streams  map[string]int

	// store is the checkpoint store (nil without Config.CheckpointDir);
	// traced executions contribute their final states through it too.
	store *sweep.Store

	// Seams for tests: the default paths run real simulations.
	execute         func(cfg simconfig.Config, seed uint64) (string, map[string]float64, error)
	runSweep        func(spec sweep.Spec, opt sweep.Options) (*sweep.Report, error)
	executeListened func(cfg simconfig.Config, seed uint64, attach func(*simconfig.Simulation)) (string, map[string]float64, error)
}

// flight is one in-progress computation. Followers wait on done, then read
// the result fields (written exactly once, before done is closed).
type flight struct {
	done   chan struct{}
	body   []byte
	status int
	err    error
}

// New builds a ready Server from cfg (zero values take defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	if cfg.CacheDir != "" {
		if err := os.MkdirAll(cfg.CacheDir, 0o755); err != nil {
			log.Printf("server: cache dir %s: %v (disk spill disabled)", cfg.CacheDir, err)
			cfg.CacheDir = ""
		}
	}
	pol := cfg.Policy
	if pol == nil {
		pol = &tenantsched.Policy{}
	}
	s := &Server{
		cfg:           cfg,
		pool:          newPool(cfg.Workers, cfg.QueueDepth, pol),
		cache:         newCache(cfg.CacheEntries, cfg.CacheBytes, cfg.CacheDir),
		watch:         newWatchHub(),
		simulateStats: newEndpointStats(),
		sweepStats:    newEndpointStats(),
		jobsStats:     newEndpointStats(),
		batchStats:    newEndpointStats(),
		traceStats:    newEndpointStats(),
		diffStats:     newEndpointStats(),
		tenantStats:   map[string]*endpointStats{},
		streams:       map[string]int{},
		verifyRng:     rand.New(rand.NewSource(1)),
		verifySem:     make(chan struct{}, 1),
		flights:       map[string]*flight{},
		execute:       sweep.ExecuteConfig,
		runSweep:      sweep.Run,
	}
	s.pol.Store(pol)
	if cfg.CheckpointDir != "" {
		if store, err := sweep.NewStore(cfg.CheckpointDir); err != nil {
			log.Printf("server: checkpoint dir %s: %v (checkpoint reuse disabled)", cfg.CheckpointDir, err)
		} else {
			s.store = store
			s.execute = func(c simconfig.Config, seed uint64) (string, map[string]float64, error) {
				digest, m, _, err := sweep.ExecuteConfigCheckpointed(c, seed, store)
				return digest, m, err
			}
			s.runSweep = func(spec sweep.Spec, opt sweep.Options) (*sweep.Report, error) {
				opt.CheckpointDir = cfg.CheckpointDir
				return sweep.Run(spec, opt)
			}
		}
	}
	// The listened path never resumes (a trace must cover the run from
	// tick zero) but still contributes checkpoints through the store.
	s.executeListened = func(c simconfig.Config, seed uint64, attach func(*simconfig.Simulation)) (string, map[string]float64, error) {
		return sweep.ExecuteConfigListened(c, seed, s.store, attach)
	}
	if cfg.TraceBytes > 0 {
		s.traces = newTraceHub(cfg.TraceCacheBytes)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/simulate", s.instrument(s.simulateStats, s.serveSimulate))
	mux.HandleFunc("POST /v1/sweep", s.instrument(s.sweepStats, s.serveSweep))
	mux.HandleFunc("GET /v1/jobs/{key}", s.instrument(s.jobsStats, s.serveJob))
	mux.HandleFunc("POST /v1/jobs", s.instrument(s.batchStats, s.serveJobsBatch))
	mux.HandleFunc("GET /v1/trace/{key}", s.instrument(s.traceStats, s.serveTrace))
	mux.HandleFunc("POST /v1/diff", s.instrument(s.diffStats, s.serveDiff))
	mux.HandleFunc("GET /healthz", s.serveHealthz)
	mux.HandleFunc("GET /readyz", s.serveReadyz)
	mux.HandleFunc("GET /metrics", s.serveMetrics)
	s.mux = mux
	s.ready.Store(true)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// SetReady flips the /readyz signal; shutdown flips it false first so
// load balancers stop routing before the listener closes. Going not-ready
// also ends every SSE watch stream (with a final "draining" status), so
// the HTTP server's Shutdown is not held open by long-lived streams.
func (s *Server) SetReady(ok bool) {
	s.ready.Store(ok)
	if ok {
		s.watch.reopen()
		if s.traces != nil {
			s.traces.reopen()
		}
	} else {
		s.watch.shutdown()
		if s.traces != nil {
			s.traces.shutdown()
		}
	}
}

// SetPolicy hot-swaps the tenant policy (SIGHUP reload): identity checks
// use it immediately, existing tenants take their new weights and quotas,
// and tenants first seen later are created under it. A nil policy resets
// to the open defaults.
func (s *Server) SetPolicy(p *tenantsched.Policy) {
	if p == nil {
		p = &tenantsched.Policy{}
	}
	s.pol.Store(p)
	s.pool.SetPolicy(p)
}

// Drain marks the server not ready, closes watch streams, stops pool
// admission, and waits for every queued and in-flight job, including
// background cache verifications. Call after the HTTP listener has
// stopped accepting requests; submissions racing the drain get 503.
func (s *Server) Drain() {
	s.ready.Store(false)
	s.watch.shutdown()
	if s.traces != nil {
		s.traces.shutdown()
	}
	s.pool.Close()
	s.verifyWG.Wait()
}

// instrument wraps a handler, resolving the request's tenant identity
// first (X-Tenant / X-API-Key against the current policy; identity
// failures never reach the handler) and recording count, errors, and wall
// latency both per endpoint and per tenant.
func (s *Server) instrument(st *endpointStats, fn func(http.ResponseWriter, *http.Request, string) int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tenant, aerr := s.pol.Load().Identify(r.Header.Get("X-Tenant"), r.Header.Get("X-API-Key"))
		var status int
		if aerr != nil {
			status = writeError(w, aerr.Status, aerr)
		} else {
			status = fn(w, r, tenant)
		}
		ms := float64(time.Since(start)) / float64(time.Millisecond)
		st.observe(ms, status >= 400)
		if aerr == nil {
			s.statsFor(tenant).observe(ms, status >= 400)
		}
	}
}

// statsFor returns (creating on first contact) a tenant's latency stats.
func (s *Server) statsFor(tenant string) *endpointStats {
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	st, ok := s.tenantStats[tenant]
	if !ok {
		st = newEndpointStats()
		s.tenantStats[tenant] = st
	}
	return st
}

// simulateResponse is the body of POST /v1/simulate and GET /v1/jobs/{key}
// for scenario jobs. Marshaling is deterministic (struct field order;
// map keys sort), which is what makes the bodies cacheable byte-for-byte.
type simulateResponse struct {
	// Key is the request's content address, usable with GET /v1/jobs/{key}.
	Key string `json:"key"`
	// Digest is the SHA-256 of the simulation's canonical outcome.
	Digest string `json:"digest"`
	// Seed the simulation was instantiated at.
	Seed uint64 `json:"seed"`
	// Metrics are the per-job scalars (work totals, shares, frames, ...).
	Metrics map[string]float64 `json:"metrics"`
}

// sweepResponse is the body of POST /v1/sweep.
type sweepResponse struct {
	Key    string        `json:"key"`
	Report *sweep.Report `json:"report"`
}

// errorResponse is every non-200 body. Field carries the JSON path of the
// offending config value when the error is a simconfig.FieldError.
type errorResponse struct {
	Error string `json:"error"`
	Field string `json:"field,omitempty"`
}

// internalError marks a server-side fault (marshal failure, simulator
// crash) so compute answers 500 instead of blaming the request with 400.
type internalError struct{ err error }

func (e *internalError) Error() string { return e.err.Error() }
func (e *internalError) Unwrap() error { return e.err }

func (s *Server) serveSimulate(w http.ResponseWriter, r *http.Request, tenant string) int {
	cfg, err := simconfig.Parse(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		return writeError(w, http.StatusBadRequest, err)
	}
	if err := cfg.Validate(); err != nil {
		return writeError(w, http.StatusBadRequest, err)
	}
	key := sweep.JobKey(cfg, cfg.Seed)
	recompute := func() ([]byte, bool, error) {
		digest, m, err := s.executeJob(key, cfg, cfg.Seed)
		if err != nil {
			return nil, false, err
		}
		b, err := json.Marshal(simulateResponse{Key: key, Digest: digest, Seed: cfg.Seed, Metrics: m})
		if err != nil {
			return nil, false, &internalError{err}
		}
		return b, true, nil
	}
	return s.serveComputed(w, r, tenant, "simulate", key, recompute)
}

func (s *Server) serveSweep(w http.ResponseWriter, r *http.Request, tenant string) int {
	spec, err := sweep.ParseSpec(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		return writeError(w, http.StatusBadRequest, err)
	}
	// Expand validates the whole grid up front, so a bad axis is a 400
	// here rather than a failed job later.
	if _, err := sweep.Expand(spec); err != nil {
		return writeError(w, http.StatusBadRequest, err)
	}
	key := sweep.SweepKey(spec)
	recompute := func() ([]byte, bool, error) {
		rep, err := s.runSweep(spec, sweep.Options{Workers: s.cfg.SweepWorkers})
		if rep == nil {
			// The spec already expanded cleanly, so a reportless failure
			// is a server fault, not a request problem.
			if err == nil {
				err = errors.New("server: sweep returned no report")
			}
			return nil, false, &internalError{err}
		}
		// Job-level failures ride inside the report (the client sees
		// per-job errors); only a fully clean report is cached.
		b, merr := json.Marshal(sweepResponse{Key: key, Report: rep})
		if merr != nil {
			return nil, false, &internalError{merr}
		}
		return b, rep.Failed == 0, nil
	}
	return s.serveComputed(w, r, tenant, "sweep", key, recompute)
}

// jobsRequest is the body of POST /v1/jobs: a batch claim of independent
// simulation jobs, the transport unit of distributed sweep dispatch
// (cmd/hsfqmesh). Each job is a fully applied config plus the seed to
// instantiate it at; its content address is sweep.JobKey(config, seed),
// the same key space as POST /v1/simulate, so a job computed through
// either endpoint serves the other from cache.
type jobsRequest struct {
	Jobs []batchJob `json:"jobs"`
}

type batchJob struct {
	// ID correlates the outcome with the claim; opaque to the server.
	ID int `json:"id"`
	// Seed instantiates the config; 0 keeps the config's own seed.
	Seed   uint64           `json:"seed"`
	Config simconfig.Config `json:"config"`
}

type jobsResponse struct {
	Results []batchOutcome `json:"results"`
}

// batchOutcome mirrors simulateResponse plus the claim's correlation ID
// and a per-job error: one failing job fails alone, not the whole claim.
type batchOutcome struct {
	ID      int                `json:"id"`
	Key     string             `json:"key"`
	Seed    uint64             `json:"seed"`
	Digest  string             `json:"digest,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
	Error   string             `json:"error,omitempty"`
}

// serveJobsBatch answers a batch claim. The whole claim occupies one pool
// slot and fans out internally across SweepWorkers goroutines, exactly as
// a sweep request does, so admission control still counts claims rather
// than jobs; per-job results are served from or admitted to the shared
// content-addressed cache.
func (s *Server) serveJobsBatch(w http.ResponseWriter, r *http.Request, tenant string) int {
	var req jobsRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return writeError(w, http.StatusBadRequest, fmt.Errorf("server: %w", err))
	}
	if len(req.Jobs) == 0 {
		return writeError(w, http.StatusBadRequest, errors.New("server: empty batch"))
	}
	if len(req.Jobs) > s.cfg.MaxBatch {
		return writeError(w, http.StatusBadRequest,
			fmt.Errorf("server: batch of %d jobs exceeds cap %d", len(req.Jobs), s.cfg.MaxBatch))
	}
	// Validate every config up front: a structurally bad job is the
	// client's 400, not a claim outcome.
	for i, j := range req.Jobs {
		if err := j.Config.Validate(); err != nil {
			return writeError(w, http.StatusBadRequest, fmt.Errorf("server: jobs[%d]: %w", i, err))
		}
	}
	compute := func() ([]byte, bool, error) {
		out := make([]batchOutcome, len(req.Jobs))
		workers := s.cfg.SweepWorkers
		if workers > len(req.Jobs) {
			workers = len(req.Jobs)
		}
		idx := make(chan int)
		var wg sync.WaitGroup
		for n := 0; n < workers; n++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					out[i] = s.runBatchJob(req.Jobs[i])
				}
			}()
		}
		for i := range req.Jobs {
			idx <- i
		}
		close(idx)
		wg.Wait()
		b, err := json.Marshal(jobsResponse{Results: out})
		if err != nil {
			return nil, false, &internalError{err}
		}
		// The batch body itself is not cached (claims are arbitrary
		// groupings); the per-job bodies were cached inside runBatchJob.
		return b, false, nil
	}
	body, _, status, err := s.compute(r, tenant, "batch", compute)
	if err != nil {
		return writeComputeError(w, status, err)
	}
	return writeResult(w, body, "batch")
}

// runBatchJob answers one claimed job: a cache hit by content address is
// decoded and re-labeled; a miss executes and populates the shared cache
// with exactly the body /v1/simulate would have stored for the same job.
func (s *Server) runBatchJob(j batchJob) batchOutcome {
	seed := j.Seed
	if seed == 0 {
		seed = j.Config.Seed
	}
	key := sweep.JobKey(j.Config, seed)
	out := batchOutcome{ID: j.ID, Key: key, Seed: seed}
	if body, ok := s.cache.Get(key); ok {
		var resp simulateResponse
		if err := json.Unmarshal(body, &resp); err == nil {
			out.Digest, out.Metrics = resp.Digest, resp.Metrics
			return out
		}
		// An undecodable cached body falls through to re-execution.
	}
	digest, m, err := s.executeJob(key, j.Config, seed)
	if err != nil {
		out.Error = err.Error()
		return out
	}
	out.Digest, out.Metrics = digest, m
	if b, err := json.Marshal(simulateResponse{Key: key, Digest: digest, Seed: seed, Metrics: m}); err == nil {
		s.cache.Put(key, b)
		s.watch.complete(key, b)
	}
	return out
}

// serveComputed is the shared hit-or-execute path: serve from cache
// (optionally verifying in the background), or run recompute on the pool
// under the request deadline and cache the result when recompute says it
// may. Concurrent misses for the same key coalesce: the first request
// (the leader) executes, later ones wait for its outcome instead of
// burning pool slots on identical work.
func (s *Server) serveComputed(w http.ResponseWriter, r *http.Request, tenant, class, key string, recompute func() ([]byte, bool, error)) int {
	if body, ok := s.cache.Get(key); ok {
		s.maybeVerify(key, body, recompute)
		return writeResult(w, body, "hit")
	}
	s.flightMu.Lock()
	if f, ok := s.flights[key]; ok {
		s.flightMu.Unlock()
		return s.serveFollower(w, r, f)
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.flightMu.Unlock()

	s.watch.announce(key, "queued")
	exec := func() ([]byte, bool, error) {
		s.watch.announce(key, "running")
		return recompute()
	}
	body, cacheable, status, err := s.compute(r, tenant, class, exec)
	if err == nil && cacheable {
		s.cache.Put(key, body)
	}
	// Publish before removing from the map, so a request either finds the
	// flight (and waits) or finds the cache already populated.
	f.body, f.status, f.err = body, status, err
	close(f.done)
	s.flightMu.Lock()
	delete(s.flights, key)
	s.flightMu.Unlock()

	if err != nil {
		s.watch.fail(key, err.Error())
		return writeComputeError(w, status, err)
	}
	s.watch.complete(key, body)
	return writeResult(w, body, "miss")
}

// serveFollower waits for a coalesced leader's outcome, bounded by this
// request's own deadline, and serves whatever the leader got.
func (s *Server) serveFollower(w http.ResponseWriter, r *http.Request, f *flight) int {
	s.coalesced.Add(1)
	timer := time.NewTimer(s.cfg.RequestTimeout)
	defer timer.Stop()
	select {
	case <-f.done:
	case <-r.Context().Done():
		return writeError(w, http.StatusGatewayTimeout, r.Context().Err())
	case <-timer.C:
		return writeError(w, http.StatusGatewayTimeout, context.DeadlineExceeded)
	}
	if f.err != nil {
		return writeComputeError(w, f.status, f.err)
	}
	return writeResult(w, f.body, "coalesced")
}

// writeComputeError writes a failed computation's status, adding
// Retry-After when the failure was load shedding. The retry estimate is
// the shedding tenant's own — derived in tenantsched from that tenant's
// backlog, weight share, and the observed mean service time — not the
// global queue depth, so a flooded tenant is told to back off for longer
// while a lightly loaded one may retry almost immediately.
func writeComputeError(w http.ResponseWriter, status int, err error) int {
	if status == http.StatusTooManyRequests {
		retry := "1"
		var se *tenantsched.ShedError
		if errors.As(err, &se) && se.RetryAfter > 0 {
			retry = strconv.Itoa(int(se.RetryAfter / time.Second))
		}
		w.Header().Set("Retry-After", retry)
	}
	return writeError(w, status, err)
}

// compute runs fn on the worker pool under the tenant's scheduling class,
// bounded by the per-request deadline. The returned status is meaningful
// only when err is non-nil.
func (s *Server) compute(r *http.Request, tenant, class string, fn func() ([]byte, bool, error)) (body []byte, cacheable bool, status int, err error) {
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	type out struct {
		body      []byte
		cacheable bool
		err       error
	}
	ch := make(chan out, 1) // buffered: a worker never blocks on an abandoned request
	submitErr := s.pool.Submit(tenant, class, func() func() {
		var o out
		if err := ctx.Err(); err != nil {
			o.err = err // request gave up while queued; skip the work
		} else {
			o.body, o.cacheable, o.err = fn()
		}
		return func() { ch <- o }
	})
	switch {
	case errors.Is(submitErr, ErrQueueFull):
		s.shed.Add(1)
		return nil, false, http.StatusTooManyRequests, submitErr
	case errors.Is(submitErr, ErrDraining):
		return nil, false, http.StatusServiceUnavailable, submitErr
	case submitErr != nil:
		return nil, false, http.StatusInternalServerError, submitErr
	}
	select {
	case o := <-ch:
		if o.err != nil {
			var ie *internalError
			switch {
			case errors.As(o.err, &ie):
				return nil, false, http.StatusInternalServerError, o.err
			case ctx.Err() != nil:
				return nil, false, http.StatusGatewayTimeout, o.err
			default:
				// The config parsed and validated but failed to build —
				// a request-level problem, not a server fault.
				return nil, false, http.StatusBadRequest, o.err
			}
		}
		return o.body, o.cacheable, http.StatusOK, nil
	case <-ctx.Done():
		return nil, false, http.StatusGatewayTimeout, ctx.Err()
	}
}

// maybeVerify re-executes a sampled fraction of cache hits and compares
// bytes, counting any divergence. Verification runs in the background so
// the hit keeps its latency, outside pool admission so a full queue
// cannot starve the determinism check, and behind a one-slot semaphore so
// sampled hits can never pile up unbounded re-executions: when a
// verification is already running the sample is skipped and counted
// (verify_skipped) instead of queued.
func (s *Server) maybeVerify(key string, cached []byte, recompute func() ([]byte, bool, error)) {
	f := s.cfg.VerifyFraction
	if f <= 0 {
		return
	}
	if f < 1 {
		s.verifyMu.Lock()
		p := s.verifyRng.Float64()
		s.verifyMu.Unlock()
		if p >= f {
			return
		}
	}
	select {
	case s.verifySem <- struct{}{}:
	default:
		s.verifySkipped.Add(1)
		return
	}
	s.verifyWG.Add(1)
	go func() {
		defer func() {
			<-s.verifySem
			s.verifyWG.Done()
		}()
		s.verifyRuns.Add(1)
		b, _, err := recompute()
		if err != nil || !bytes.Equal(b, cached) {
			s.verifyFailures.Add(1)
			log.Printf("server: cache verification FAILED for %s (err=%v): cached bytes differ from re-execution", key, err)
		}
	}()
}

// jobKeyRE matches the only keys the server ever issues: 64-char
// lowercase-hex SHA-256 digests (sweep.JobKey/SweepKey). Anything else —
// in particular traversal attempts like "..%2F..%2Fetc%2Fcreds", which
// r.PathValue decodes to path segments — must never reach the cache or
// its spill directory.
var jobKeyRE = regexp.MustCompile(`^[0-9a-f]{64}$`)

func (s *Server) serveJob(w http.ResponseWriter, r *http.Request, tenant string) int {
	key := r.PathValue("key")
	if !jobKeyRE.MatchString(key) {
		return writeError(w, http.StatusNotFound, errors.New("server: malformed job key (want 64-char hex digest)"))
	}
	if r.URL.Query().Get("watch") != "" {
		return s.serveJobWatch(w, r, key)
	}
	if body, ok := s.cache.Get(key); ok {
		return writeResult(w, body, "hit")
	}
	return writeError(w, http.StatusNotFound, errors.New("server: unknown job (never submitted, or evicted without a spill directory)"))
}

func (s *Server) serveHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ok\n"))
}

func (s *Server) serveReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("draining\n"))
		return
	}
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ok\n"))
}

// Metrics is the /metrics document: queue and pool state, shed and
// verification counters, cache counters, and per-endpoint latency
// histograms.
type Metrics struct {
	Workers           int                      `json:"workers"`
	QueueDepth        int                      `json:"queue_depth"`
	QueueCapacity     int                      `json:"queue_capacity"`
	InFlight          int64                    `json:"in_flight"`
	WorkerUtilization float64                  `json:"worker_utilization"`
	TasksDone         int64                    `json:"tasks_done"`
	Shed              int64                    `json:"shed"`
	Coalesced         int64                    `json:"coalesced"`
	Ready             bool                     `json:"ready"`
	VerifyRuns        int64                    `json:"verify_runs"`
	VerifyFailures    int64                    `json:"verify_failures"`
	VerifySkipped     int64                    `json:"verify_skipped"`
	Cache             CacheStats               `json:"cache"`
	Endpoints         map[string]EndpointStats `json:"endpoints"`
	// Trace reports the live-trace hub's state; omitted when tracing is
	// disabled.
	Trace *TraceMetrics `json:"trace,omitempty"`
	// VirtualTime is the scheduling tree's global virtual time
	// (nanoseconds of service over weight at the root).
	VirtualTime float64 `json:"virtual_time"`
	// Tenants holds per-tenant scheduling state and latency; keys are
	// tenant names (header-less traffic appears as "default").
	Tenants map[string]TenantMetrics `json:"tenants"`
}

// TraceMetrics is the /metrics entry for the live-trace hub.
type TraceMetrics struct {
	// Live is the number of executions currently streaming.
	Live int `json:"live"`
	// Finished is the number of retained finished recordings; Bytes their
	// total frame bytes; Evicted how many recordings the byte cap pushed
	// out.
	Finished int   `json:"finished"`
	Bytes    int64 `json:"bytes"`
	Evicted  int64 `json:"evicted"`
	// Streams is the number of open follow streams across all tenants.
	Streams int `json:"streams"`
}

// TenantMetrics is one tenant's /metrics entry: the scheduling queue's
// counters and tags plus request latency quantiles from the shared
// histogram machinery.
type TenantMetrics struct {
	tenantsched.TenantSnapshot
	Requests EndpointStats `json:"requests"`
}

// Snapshot collects the current Metrics.
func (s *Server) Snapshot() Metrics {
	inFlight := s.pool.InFlight()
	snaps, vt := s.pool.Queue().Snapshot()
	tenants := make(map[string]TenantMetrics, len(snaps))
	s.tenantMu.Lock()
	for name, snap := range snaps {
		tm := TenantMetrics{TenantSnapshot: snap}
		if st, ok := s.tenantStats[name]; ok {
			tm.Requests = st.snapshot()
		}
		tenants[name] = tm
	}
	// Tenants whose requests never reached the pool (all cache hits, or
	// all identity/validation failures) still show up with latency stats.
	for name, st := range s.tenantStats {
		if _, ok := tenants[name]; !ok {
			tenants[name] = TenantMetrics{Requests: st.snapshot()}
		}
	}
	s.tenantMu.Unlock()
	var tm *TraceMetrics
	if s.traces != nil {
		live, done, bytes := s.traces.counts()
		s.streamMu.Lock()
		open := 0
		for _, n := range s.streams {
			open += n
		}
		s.streamMu.Unlock()
		tm = &TraceMetrics{
			Live: live, Finished: done, Bytes: bytes,
			Evicted: s.traces.evicted.Load(), Streams: open,
		}
	}
	return Metrics{
		Workers:           s.pool.Workers(),
		QueueDepth:        s.pool.Depth(),
		QueueCapacity:     s.pool.Capacity(),
		InFlight:          inFlight,
		WorkerUtilization: float64(inFlight) / float64(s.pool.Workers()),
		TasksDone:         s.pool.Done(),
		Shed:              s.shed.Load(),
		Coalesced:         s.coalesced.Load(),
		Ready:             s.ready.Load(),
		VerifyRuns:        s.verifyRuns.Load(),
		VerifyFailures:    s.verifyFailures.Load(),
		VerifySkipped:     s.verifySkipped.Load(),
		Cache:             s.cache.Stats(),
		Endpoints: map[string]EndpointStats{
			"simulate":   s.simulateStats.snapshot(),
			"sweep":      s.sweepStats.snapshot(),
			"jobs":       s.jobsStats.snapshot(),
			"jobs_batch": s.batchStats.snapshot(),
			"trace":      s.traceStats.snapshot(),
			"diff":       s.diffStats.snapshot(),
		},
		Trace:       tm,
		VirtualTime: vt,
		Tenants:     tenants,
	}
}

func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	b, err := json.MarshalIndent(s.Snapshot(), "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(append(b, '\n'))
}

// writeResult serves a computed or cached body; hitOrMiss lands in the
// X-Cache header so clients and load tests can see cache behaviour.
func writeResult(w http.ResponseWriter, body []byte, hitOrMiss string) int {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", hitOrMiss)
	w.WriteHeader(http.StatusOK)
	w.Write(body)
	return http.StatusOK
}

func writeError(w http.ResponseWriter, status int, err error) int {
	resp := errorResponse{Error: err.Error()}
	var fe *simconfig.FieldError
	if errors.As(err, &fe) {
		resp.Field = fe.Field
	}
	b, merr := json.Marshal(resp)
	if merr != nil {
		b = []byte(`{"error":"internal"}`)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
	return status
}
