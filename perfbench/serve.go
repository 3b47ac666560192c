package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hsfq/internal/server"
	"hsfq/internal/sim"
	"hsfq/internal/simconfig"
	"hsfq/internal/sweep"
	"hsfq/internal/tenantsched"
	"hsfq/internal/tracestream"
)

const (
	// offeredRate is the fixed Poisson arrival rate, in requests per
	// second. The mix costs 3.3-5.8 ms of CPU per request on the 2-CPU
	// host it was sized on, so this offers a fifth to a third of its
	// capacity: enough to queue, far from saturation.
	offeredRate = 110
	// missHorizon is the horizon of the hit and miss classes; resumes
	// extend a miss to twice it. Both are at most every shipped horizon.
	// A common horizon keeps the configs' miss costs within 3x of each
	// other (5x at their shipped horizons), so the latency percentiles
	// fall inside a class's spread rather than on a gap between configs.
	missHorizon = 8 * sim.Second
	// connections bounds the client's concurrent connections (≤ nproc on
	// the 2-CPU host the rate was sized on). A request due while both
	// are busy waits, and that wait counts in its latency.
	connections = 2
	// traceBytes is hsfqd's default per-run trace recording cap.
	traceBytes = 4 << 20
	// hotSeeds is how many seeds per shipped config the repeat class
	// cycles through; set-up primes the cache with all of them.
	hotSeeds = 2
	// replayJobs bounds the out-of-band layer replays of a traced run.
	replayJobs = 24
	// sampleEvery is the backlog and server-state sampling period.
	sampleEvery = 100 * time.Millisecond
	// drainLimit bounds the wait for requests still in flight when the
	// window closes.
	drainLimit = 60 * time.Second
)

// Request classes. The mix repeats every ten requests.
const (
	classHit    = "hit"    // a key set-up already computed: a cache hit
	classMiss   = "miss"   // a fresh seed at missHorizon
	classResume = "resume" // an earlier miss extended to twice missHorizon
)

var classCycle = []string{
	classHit, classMiss, classHit, classMiss, classResume,
	classHit, classMiss, classHit, classMiss, classResume,
}

// tenants is the two-tenant policy: requests alternate between them by
// mix cycle, and a traced run traces every other pair of cycles, so both
// tenants are traced and untraced alike.
var tenants = []string{"interactive", "batch"}

func servePolicy() *tenantsched.Policy {
	return &tenantsched.Policy{Tenants: map[string]tenantsched.TenantPolicy{
		"interactive": {Weight: 3},
		"batch":       {Weight: 1},
	}}
}

// arrival is one scheduled request.
type arrival struct {
	At     time.Duration // intended send time from the window's start
	Class  string
	Tenant string
	Job    simJob
	Traced bool // records spans in a traced run
}

// serveInputs are the generated inputs of a serve-open run.
type serveInputs struct {
	hot      []simJob
	schedule []arrival
	misses   []simJob // fresh jobs in issue order
	resumes  []simJob // resumes[i] extends misses[i]
}

func newServeInputs(seed uint64, window time.Duration) (serveInputs, error) {
	names, cfgs, err := shippedConfigs()
	if err != nil {
		return serveInputs{}, err
	}
	var in serveInputs
	for s := 0; s < hotSeeds; s++ {
		for i, c := range cfgs {
			j, err := makeJob(names[i], c, missHorizon, deriveSeed(seed, 1, s*len(cfgs)+i))
			if err != nil {
				return serveInputs{}, err
			}
			in.hot = append(in.hot, j)
		}
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	var at time.Duration
	resumes := 0
	for k := 0; ; k++ {
		at += time.Duration(rng.ExpFloat64() / offeredRate * float64(time.Second))
		if at >= window {
			break
		}
		cycle := k / len(classCycle)
		a := arrival{At: at, Class: classCycle[k%len(classCycle)], Tenant: tenants[cycle%2], Traced: cycle/2%2 == 1}
		switch a.Class {
		case classHit:
			a.Job = in.hot[k%len(in.hot)]
		case classMiss:
			n := len(in.misses)
			c := cfgs[n%len(cfgs)]
			base, err := makeJob(names[n%len(cfgs)], c, missHorizon, deriveSeed(seed, 2, n))
			if err != nil {
				return serveInputs{}, err
			}
			ext, err := makeJob(base.Name, c, 2*missHorizon, base.Seed)
			if err != nil {
				return serveInputs{}, err
			}
			in.misses = append(in.misses, base)
			in.resumes = append(in.resumes, ext)
			a.Job = base
		case classResume:
			// The n-th resume extends the n-th miss, which the mix
			// always issues earlier.
			a.Job = in.resumes[resumes]
			resumes++
		}
		in.schedule = append(in.schedule, a)
	}
	return in, nil
}

// daemon is an in-process hsfqd: a server.Server on a loopback listener
// with hsfqd's defaults, a checkpoint store and the two-tenant policy.
type daemon struct {
	srv    *server.Server
	http   *http.Server
	url    string
	client *http.Client
	done   chan struct{}
}

func startDaemon(ckptDir string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv: server.New(server.Config{
			CheckpointDir: ckptDir,
			Policy:        servePolicy(),
			TraceBytes:    traceBytes,
		}),
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     connections,
			MaxIdleConnsPerHost: connections,
		}},
	}
	d.http = &http.Server{Handler: d.srv}
	go func() {
		defer close(d.done)
		d.http.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return d, nil
}

func (d *daemon) close() {
	d.http.Close()
	<-d.done
	d.srv.Drain()
	d.client.CloseIdleConnections()
}

// response is what the client saw for one request.
type response struct {
	Sent, Done time.Duration // from the window's start
	Digest     string
	Err        error // transport failure or any status but 200
}

// simulate posts a job and returns the digest of a 200 response.
func (d *daemon) simulate(j simJob, tenant string) (string, error) {
	req, err := http.NewRequest(http.MethodPost, d.url+"/v1/simulate", bytes.NewReader(j.Body))
	if err != nil {
		return "", err
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := d.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var out struct {
		Digest string `json:"digest"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return "", err
	}
	return out.Digest, nil
}

// setUpDaemon starts a daemon and primes its cache with every hot key.
func setUpDaemon(dir string, hot []simJob) (*daemon, error) {
	d, err := startDaemon(dir)
	if err != nil {
		return nil, err
	}
	for i, j := range hot {
		if _, err := d.simulate(j, tenants[i%2]); err != nil {
			d.close()
			return nil, fmt.Errorf("priming %s: %w", j.Name, err)
		}
	}
	return d, nil
}

// openLoop is the outcome of one open-loop window.
type openLoop struct {
	resps   []response
	late    []float64     // ms the generator issued each request after it was due
	backlog []float64     // sampled requests due but not finished
	queue   []float64     // sampled tenantsched queue depth (traced runs only)
	util    []float64     // sampled worker utilization (traced runs only)
	cpu     time.Duration // process CPU time from the first send to the last reply
}

// drive sends the schedule on time regardless of replies, through at most
// connections concurrent requests. With a tracer it also samples the
// server's state and records spans for the arrivals marked Traced.
func drive(d *daemon, sched []arrival, tr *tracer) (openLoop, error) {
	out := openLoop{resps: make([]response, len(sched)), late: make([]float64, len(sched))}
	// Buffered to the number of sends, so the generator never blocks on a
	// busy client and stays on schedule.
	work := make(chan int, len(sched))
	var issued, finished atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	cpu0 := cpuTime()
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				a := sched[k]
				traced := tr != nil && a.Traced
				var sent int64
				if traced {
					sent = tr.now()
				}
				r := response{Sent: time.Since(start)}
				r.Digest, r.Err = d.simulate(a.Job, a.Tenant)
				r.Done = time.Since(start)
				if traced {
					done, due := tr.now(), sent-int64(r.Sent-a.At)
					tr.add(span{Name: "request", Op: k, Start: due, End: done},
						span{Name: "server." + a.Class, Op: k, Start: sent, End: done})
				}
				out.resps[k] = r
				finished.Add(1)
			}
		}()
	}

	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				out.backlog = append(out.backlog, float64(issued.Load()-finished.Load()))
				if tr != nil {
					snap := d.srv.Snapshot()
					out.queue = append(out.queue, float64(snap.QueueDepth))
					out.util = append(out.util, snap.WorkerUtilization)
				}
			}
		}
	}()

	for k, a := range sched {
		if wait := a.At - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		out.late[k] = ms(time.Since(start) - a.At)
		issued.Add(1)
		work <- k
	}
	close(work)
	drained := make(chan struct{})
	go func() {
		wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-time.After(drainLimit):
		err = fmt.Errorf("requests still in flight %v after the window", drainLimit)
	}
	out.cpu = cpuTime() - cpu0
	close(stop)
	<-sampled
	if err != nil {
		d.close() // fails the stuck requests, so the senders exit
		<-drained
	}
	return out, err
}

// growing reports whether the sampled backlog rose through the run: the
// last quarter's median well above the first quarter's. At the offered
// rate the backlog stays within a few requests; a growing one means the
// host could not keep up, and latency then depends on the window length.
func growing(backlog []float64) (first, last float64, grew bool) {
	n := len(backlog) / 4
	if n == 0 {
		return 0, 0, false
	}
	first, last = median(backlog[:n]), median(backlog[len(backlog)-n:])
	return first, last, last > 8 && last > 4*(first+1)
}

func runServeOpen(opt options) (report, error) {
	in, err := newServeInputs(opt.Seed, opt.Window)
	if err != nil {
		return report{}, err
	}
	k := 0
	d, setups, err := repeatSetup(func() (*daemon, error) {
		k++
		return setUpDaemon(filepath.Join(opt.OutDir, fmt.Sprintf("ckpt%d", k)), in.hot)
	}, (*daemon).close)
	if err != nil {
		return report{}, err
	}
	var tr *tracer
	if opt.Trace {
		tr = newTracer()
	}
	loop, err := drive(d, in.schedule, tr)
	if err != nil {
		return report{}, err
	}
	snap := d.srv.Snapshot()
	d.close()
	rss := peakRSSMB() // before the checks below allocate

	rep := report{Attempted: len(in.schedule), Metrics: map[string]float64{}}
	if first, last, grew := growing(loop.backlog); grew {
		rep.Invalid = fmt.Sprintf("backlog grew from %.0f to %.0f requests: the host did not keep up with %d req/s",
			first, last, offeredRate)
	}
	rep.Failed = checkResponses(in.schedule, loop.resps)

	var lat []float64
	byClass := map[string][]float64{}
	var last time.Duration
	for i, r := range loop.resps {
		if r.Err != nil {
			continue
		}
		lat = append(lat, ms(r.Done-in.schedule[i].At))
		byClass[in.schedule[i].Class] = append(byClass[in.schedule[i].Class], ms(r.Done-r.Sent))
		if r.Done > last {
			last = r.Done
		}
	}
	m := rep.Metrics
	if !opt.Trace {
		m["setup_s"] = median(setups)
		m["ops_per_s"] = float64(len(lat)) / last.Seconds()
		m["cpu_ms_per_op"] = ms(loop.cpu) / float64(len(in.schedule))
		m["latency_ms_p50"] = median(lat)
		m["latency_ms_p90"] = quantile(lat, 0.9)
		m["peak_rss_mb"] = rss
		fmt.Fprintf(os.Stderr, "perfbench: %d requests, generator late p99 %.3f ms, backlog max %.0f\n",
			len(in.schedule), quantile(loop.late, 0.99), quantile(loop.backlog, 1))
		return rep, nil
	}

	m["server.hit_ms_p50"] = median(byClass[classHit])
	m["server.miss_ms_p50"] = median(byClass[classMiss])
	m["server.resume_ms_p50"] = median(byClass[classResume])
	m["server.handler_ms_p50"] = snap.Endpoints["simulate"].LatencyMS.P50
	if n := snap.Cache.Hits + snap.Cache.Misses; n > 0 {
		m["server.cache_hit_ratio"] = float64(snap.Cache.Hits) / float64(n)
	}
	m["server.coalesced"] = float64(snap.Coalesced)
	m["server.shed"] = float64(snap.Shed)
	m["server.worker_utilization"] = sum(loop.util) / float64(len(loop.util))
	m["tenantsched.queue_depth_max"] = quantile(loop.queue, 1)
	m["loadgen.late_ms_p99"] = quantile(loop.late, 0.99)

	var traced, plain []float64
	for i, a := range in.schedule {
		if r := loop.resps[i]; r.Err == nil && a.Traced {
			traced = append(traced, ms(r.Done-a.At))
		} else if r.Err == nil {
			plain = append(plain, ms(r.Done-a.At))
		}
	}
	m["trace.overhead_ms"] = median(traced) - median(plain)
	m["trace.residual_ms"] = tr.medianSelf("request")["request"]

	if err := replayLayers(m, in, tr, &rep, opt.OutDir); err != nil {
		return report{}, err
	}
	writeSpans(opt, tr)
	return rep, nil
}

// checkResponses counts failed requests: refused or failed ones, and any
// 200 whose digest differs from sweep.ExecuteConfig of its config and
// seed, computed after the window on every available CPU.
func checkResponses(sched []arrival, resps []response) int {
	failed := 0
	want := map[string]string{} // body → digest
	for i, r := range resps {
		if r.Err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s %s request %d: %v\n", sched[i].Class, sched[i].Job.Name, i, r.Err)
			continue
		}
		want[string(sched[i].Job.Body)] = ""
	}
	bodies := make(chan string, len(want)) // sized to the number of sends
	for b := range want {
		bodies <- b
	}
	close(bodies)
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range bodies {
				digest := "error"
				if c, err := simconfig.Parse(bytes.NewReader([]byte(b))); err == nil {
					if d, _, err := sweep.ExecuteConfig(c, c.Seed); err == nil {
						digest = d
					}
				}
				mu.Lock()
				want[b] = digest
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for i, r := range resps {
		if r.Err == nil && r.Digest != want[string(sched[i].Job.Body)] {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s %s request %d: digest %s, sweep.ExecuteConfig gives %s\n",
				sched[i].Class, sched[i].Job.Name, i, r.Digest, want[string(sched[i].Job.Body)])
		}
	}
	return failed
}

// replayLayers measures the layers behind the miss and resume classes out
// of band, on the first replayJobs misses of the run and their
// extensions: the simulation pipeline with spans, the trace recording
// overhead, checkpoint save and restore, and how often an extension
// resumes from the store.
func replayLayers(m map[string]float64, in serveInputs, tr *tracer, rep *report, dir string) error {
	n := min(replayJobs, len(in.misses))
	misses := in.misses[:n]
	op := len(in.schedule) // replay ops are numbered after the requests
	var c counts
	var simNs sim.Time
	var runNs float64
	for i, j := range misses {
		tr.beginOp("replay", op+i)
		r, err := runJob(j, tr, nil)
		tr.end()
		if err != nil {
			return err
		}
		c.add(r.Counts)
		simNs += j.Horizon
		runNs += float64(r.Run)
	}
	addJobSpans(m, tr)
	m["sim_ns_per_wall_ns"] = float64(simNs) / runNs
	addCounts(m, c, runNs)

	var overhead, recorded []float64
	for _, j := range misses {
		cfg, err := simconfig.Parse(bytes.NewReader(j.Body))
		if err != nil {
			return err
		}
		t0 := time.Now()
		plain, _, err := sweep.ExecuteConfig(cfg, j.Seed)
		tPlain := time.Since(t0)
		if err != nil {
			return err
		}
		bc := tracestream.New()
		bc.EnableRecording(traceBytes)
		t0 = time.Now()
		listened, _, err := sweep.ExecuteConfigListened(cfg, j.Seed, nil, func(s *simconfig.Simulation) {
			s.Machine.Listen(bc)
			bc.Begin(s.ThreadMetas())
		})
		bc.Finish()
		tListened := time.Since(t0)
		if err != nil {
			return err
		}
		rep.Attempted++
		if listened != plain {
			rep.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: listened digest %s, plain %s\n", j.Name, listened, plain)
		}
		overhead = append(overhead, ms(tListened-tPlain))
		recorded = append(recorded, float64(len(bc.Snapshot().Frames)))
	}
	m["tracestream.overhead_ms"] = median(overhead)
	m["tracestream.recorded_bytes"] = median(recorded)

	return replayCheckpoints(m, misses, in.resumes[:n], rep, filepath.Join(dir, "ckpt-replay"))
}

// replayCheckpoints runs each miss and then its extension through
// sweep.ExecuteConfigCheckpointed on a fresh store, the path hsfqd takes
// for an untraced request, and probes Save and Restore of each miss's
// final state.
func replayCheckpoints(m map[string]float64, misses, resumes []simJob, rep *report, dir string) error {
	store, err := sweep.NewStore(dir)
	if err != nil {
		return err
	}
	hits := 0
	var saves, restores, sizes []float64
	for i := range misses {
		for _, j := range []simJob{misses[i], resumes[i]} {
			cfg, err := simconfig.Parse(bytes.NewReader(j.Body))
			if err != nil {
				return err
			}
			got, _, resumed, err := sweep.ExecuteConfigCheckpointed(cfg, j.Seed, store)
			if err != nil {
				return err
			}
			want, _, err := sweep.ExecuteConfig(cfg, j.Seed)
			if err != nil {
				return err
			}
			rep.Attempted++
			if got != want {
				rep.Failed++
				fmt.Fprintf(os.Stderr, "perfbench: %s: checkpointed digest %s, plain %s\n", j.Name, got, want)
			}
			if resumed {
				hits++
			}
		}
		p, err := probeCheckpoint(misses[i])
		rep.Attempted++
		if err != nil || !p.RoundTrip {
			rep.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: checkpoint round trip failed (%v)\n", misses[i].Name, err)
			continue
		}
		saves = append(saves, ms(p.Save))
		restores = append(restores, ms(p.Restore))
		sizes = append(sizes, float64(p.Bytes))
	}
	m["checkpoint.resume_hit_ratio"] = float64(hits) / float64(len(resumes))
	m["checkpoint.save_ms"] = median(saves)
	m["checkpoint.restore_ms"] = median(restores)
	m["checkpoint.bytes"] = median(sizes)
	return nil
}
