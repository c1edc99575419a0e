package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"autotune"
	"autotune/internal/server"
)

// jobSpec is one submission of a client's round.
type jobSpec struct {
	req server.JobRequest
	// resubmits is the index of the earlier job of the same round this
	// one repeats exactly (a dedup hit), or -1.
	resubmits int
}

// clientKernels splits the built-in kernels between the clients, so
// what a warm start reads never depends on the other client's timing.
func clientKernels(client int) []string {
	var out []string
	for i, k := range autotune.Kernels() {
		if i%2 == client {
			out = append(out, k)
		}
	}
	return out
}

// serveRound draws one client's jobs for a round: mostly RS-GDE3,
// with NSGA-II, racing and surrogate-screened jobs, one job that opts
// out of the warm start, and one exact resubmission. The kernels cycle
// through the client's share round by round; only the optimizer seeds
// come from rng.
func serveRound(rng *rand.Rand, client, round int) []jobSpec {
	ks := clientKernels(client)
	a, b := ks[round%len(ks)], ks[(round+1)%len(ks)]
	seed := func() int64 { return 1 + rng.Int63n(1<<31) }
	job := func(kernel, mach, method string) server.JobRequest {
		return server.JobRequest{Tenant: fmt.Sprintf("c%d", client), Kernel: kernel, Machine: mach,
			Method: method, Seed: seed(), Noise: noise}
	}
	cold := job(b, "Barcelona", "rs-gde3")
	off := false
	cold.WarmStart = &off
	screened := job(b, "Westmere", "rs-gde3")
	screened.Surrogate = true
	specs := []jobSpec{
		{job(a, "Westmere", "rs-gde3"), -1},
		{job(a, "Westmere", "rs-gde3"), -1}, // warm-starts from the first
		{job(b, "Barcelona", "nsga2"), -1},
		{screened, -1},
		{job(a, "Barcelona", "race"), -1},
		{cold, -1},
		{job(b, "Barcelona", "rs-gde3"), -1},
	}
	return append(specs, jobSpec{specs[0].req, 0})
}

// served is what a client saw of one job.
type served struct {
	spec     jobSpec
	id       string
	status   server.JobStatus // terminal status from the event stream
	front    []byte
	err      error
	postAt   time.Time // POST sent
	ackAt    time.Time // POST answered
	doneAt   time.Time // terminal event received
	frontAt  time.Time // front fetched
	deduped  bool
	original string // for a resubmission, the id of the job it repeats
}

// evalTimes records each job's first and last fresh evaluation
// through the orchestrator's evaluation hook.
type evalTimes struct {
	mu          sync.Mutex
	first, last map[string]time.Time
}

func newEvalTimes() *evalTimes {
	return &evalTimes{first: map[string]time.Time{}, last: map[string]time.Time{}}
}

func (e *evalTimes) hook(id string, _ int) {
	now := time.Now()
	e.mu.Lock()
	if _, ok := e.first[id]; !ok {
		e.first[id] = now
	}
	e.last[id] = now
	e.mu.Unlock()
}

// liveServer is an in-process tuning service on a loopback listener.
type liveServer struct {
	base   string
	cancel context.CancelFunc
	errc   chan error
}

// startServer opens an orchestrator with cfg, serves it on a loopback
// port and returns once /healthz answers ok.
func startServer(cfg server.Config) (*liveServer, error) {
	orch, err := server.NewOrchestrator(cfg)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		orch.Drain()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &liveServer{base: "http://" + l.Addr().String(), cancel: cancel, errc: make(chan error, 1)}
	go func() { s.errc <- server.New(orch).Serve(ctx, l) }()
	c := &server.Client{BaseURL: s.base, HTTP: httpClient}
	give := time.After(10 * time.Second)
	for {
		if h, err := c.Healthz(ctx); err == nil && h == "ok" {
			return s, nil
		}
		select {
		case err := <-s.errc:
			cancel()
			return nil, fmt.Errorf("server exited while starting: %v", err)
		case <-give:
			return nil, fmt.Errorf("server not healthy after 10s: %v", s.stop())
		case <-time.After(time.Millisecond):
		}
	}
}

// stop drains the service and waits for it to exit.
func (s *liveServer) stop() error {
	s.cancel()
	return <-s.errc
}

// httpClient keeps connections alive between a client's requests.
var httpClient = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}

// waitTerminal follows the job's server-sent event stream until the
// terminal "done" event and returns the status it carries.
func waitTerminal(ctx context.Context, base, id string) (server.JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return server.JobStatus{}, err
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return server.JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return server.JobStatus{}, fmt.Errorf("events of %s: HTTP %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), server.MaxRequestBytes)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "done":
			var st server.JobStatus
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
				return server.JobStatus{}, fmt.Errorf("events of %s: %w", id, err)
			}
			return st, nil
		}
	}
	if err := sc.Err(); err != nil {
		return server.JobStatus{}, err
	}
	return server.JobStatus{}, fmt.Errorf("events of %s ended without a terminal event", id)
}

// runClient submits the client's jobs one after another (a closed
// loop): POST, wait for the terminal event, fetch the front.
func runClient(ctx context.Context, base string, specs []jobSpec) []served {
	c := &server.Client{BaseURL: base, HTTP: httpClient}
	out := make([]served, len(specs))
	for i, spec := range specs {
		j := &out[i]
		j.spec = spec
		if spec.resubmits >= 0 {
			j.original = out[spec.resubmits].id
		}
		req := spec.req
		j.postAt = time.Now()
		st, err := c.Submit(ctx, &req)
		j.ackAt = time.Now()
		if err != nil {
			j.err = err
			continue
		}
		j.id, j.deduped = st.ID, st.Deduped
		if j.status, err = waitTerminal(ctx, base, st.ID); err != nil {
			j.err = err
			continue
		}
		j.doneAt = time.Now()
		if j.front, err = c.Front(ctx, st.ID); err != nil {
			j.err = err
			continue
		}
		j.frontAt = time.Now()
	}
	return out
}

// serveRoundResult is one round: a fresh service, both clients' jobs,
// and the service's dedup counter at the end.
type serveRoundResult struct {
	busy      time.Duration // first POST to last front
	allocs    uint64
	jobs      []served
	dedupHits int64
}

// serveOnce runs one round on a fresh service under r.tmp.
func serveOnce(r *run, round int, rng *rand.Rand, cfg server.Config) (serveRoundResult, error) {
	var out serveRoundResult
	cfg.StateDir = filepath.Join(r.tmp, fmt.Sprintf("serve-%d", round))
	defer os.RemoveAll(cfg.StateDir)
	clients := min(2, r.procs)
	cfg.Workers = clients
	cfg.RecoverInterval = -1
	specs := make([][]jobSpec, clients)
	for c := range specs {
		specs[c] = serveRound(rng, c, round)
	}

	srv, err := startServer(cfg)
	if err != nil {
		return out, err
	}

	// A round takes about a second; a hung request fails the run
	// instead of stalling it.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	results := make([][]served, clients)
	allocCount := newAllocCounter()
	a0 := allocCount.read()
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := range specs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = runClient(ctx, srv.base, specs[c])
		}(c)
	}
	wg.Wait()
	out.busy = time.Since(t0)
	out.allocs = allocCount.read() - a0
	for _, rs := range results {
		out.jobs = append(out.jobs, rs...)
	}
	text, err := (&server.Client{BaseURL: srv.base, HTTP: httpClient}).Metrics(ctx)
	if err == nil {
		out.dedupHits, err = metricValue(text, "tuned_dedup_hits_total")
	}
	// A connection the transport dialed but never used counts as active
	// to the server's graceful shutdown for its first five seconds.
	httpClient.CloseIdleConnections()
	if serr := srv.stop(); err == nil {
		err = serr
	}
	return out, err
}

// metricValue reads one unlabelled series from Prometheus text.
func metricValue(text, name string) (int64, error) {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, fmt.Errorf("/metrics has no %s", name)
}

// serveSetup is what the service needs before it has answered one job:
// a start in a fresh state directory and one warm-up job (mm on
// Westmere, seed 1) served to its front. The service is stopped after
// it, untimed. It runs once before each round, on a service of its
// own, so the samples spread over the run as the rounds do.
func serveSetup(r *run, round int) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	dir := filepath.Join(r.tmp, fmt.Sprintf("setup-%d", round))
	defer os.RemoveAll(dir)
	t0 := time.Now()
	srv, err := startServer(server.Config{StateDir: dir, Workers: min(2, r.procs), RecoverInterval: -1})
	if err != nil {
		return 0, err
	}
	warm := server.JobRequest{Tenant: "setup", Kernel: "mm", Machine: "Westmere", Seed: 1, Noise: noise}
	j := runClient(ctx, srv.base, []jobSpec{{warm, -1}})[0]
	d := time.Since(t0)
	httpClient.CloseIdleConnections()
	err = srv.stop()
	if j.err != nil || j.status.State != server.StateDone {
		return 0, fmt.Errorf("warm-up job: error %v, state %q", j.err, j.status.State)
	}
	return d, err
}

// serveMixed drives fresh in-process services with two closed-loop
// clients, round after round, until the time is up, then checks every
// job and front.
func serveMixed(r *run) (*result, error) {
	rng := rand.New(rand.NewSource(r.seed))
	res := &result{}
	var rounds []serveRoundResult
	var setups, latency []time.Duration
	var rates []float64 // jobs per second of client time, one per round
	var allocs uint64
	jobs := 0
	start := time.Now()
	for end := r.deadline(start); len(rounds) == 0 || time.Now().Before(end); {
		setup, err := serveSetup(r, len(rounds))
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)
		rr, err := serveOnce(r, len(rounds), rng, server.Config{})
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, rr)
		rates = append(rates, float64(len(rr.jobs))/rr.busy.Seconds())
		allocs += rr.allocs
		for _, j := range rr.jobs {
			jobs++
			latency = append(latency, j.frontAt.Sub(j.postAt))
		}
	}
	addCommon(res, setups)
	res.add("ops_per_s", median(rates), "1/s")
	res.add("allocs_per_op", float64(allocs)/float64(jobs), "count")
	lat := durations(latency)
	res.add("latency_ms_p50", quantile(lat, 0.5), "ms")
	res.add("latency_ms_p90", quantile(lat, 0.9), "ms")
	checkServed(r, res, rounds, newProblems(), nil)
	return res, nil
}

// checkServed checks every job of every round: it reached done, its
// front passes the front checks, a warm_start:false front equals the
// library's byte for byte, a resubmission joined the original job, and
// /metrics counted exactly the resubmissions as dedup hits. It counts
// attempted and failed jobs and returns each fresh job's front
// hypervolume when hv is non-nil.
func checkServed(r *run, res *result, rounds []serveRoundResult, ps *problems, hv *[]float64) {
	for ri, rr := range rounds {
		resubmits := int64(0)
		for _, j := range rr.jobs {
			res.attempted++
			req := j.spec.req
			what := fmt.Sprintf("round %d %s %s/%s %s seed %d", ri, req.Tenant, req.Kernel, req.Machine, req.Method, req.Seed)
			if j.err != nil || j.status.State != server.StateDone {
				res.failed++
				r.fail("%s: error %v, state %q", what, j.err, j.status.State)
				continue
			}
			if j.spec.resubmits >= 0 {
				resubmits++
				if !j.deduped || j.original == "" || j.id != j.original {
					r.fail("%s: resubmission got job %s (deduped %v), want the original %s", what, j.id, j.deduped, j.original)
				}
				continue
			}
			if j.deduped {
				r.fail("%s: a fresh job was deduplicated into %s", what, j.id)
			}
			p, err := ps.get(req.Kernel, req.Machine)
			if err != nil {
				r.fail("%s: %v", what, err)
				continue
			}
			front, err := parseFront(j.front)
			if err == nil {
				err = p.checkFront(front)
			}
			if err != nil {
				r.fail("%s: %v", what, err)
				continue
			}
			if hv != nil {
				*hv = append(*hv, p.hv(front))
			}
			if req.WarmStart != nil && !*req.WarmStart {
				want, err := libraryFrontJSON(cell{req.Kernel, req.Machine, req.Seed})
				if err == nil {
					err = checkSameBytes(what, j.front, want)
				}
				if err != nil {
					r.fail("%v", err)
				}
			}
		}
		if rr.dedupHits != resubmits {
			r.fail("round %d: /metrics counts %d dedup hits, the clients resubmitted %d jobs", ri, rr.dedupHits, resubmits)
		}
	}
}

// serveLayerRun is the traced serve path: rounds as in serve-mixed,
// with the orchestrator's evaluation hook marking each job's first and
// last evaluation and a counting filesystem under its database, for
// the given seconds (at least one round).
func serveLayerRun(r *run, res *result, seconds float64) error {
	rng := rand.New(rand.NewSource(r.seed))
	var rounds []serveRoundResult
	var submit, queue, search, finish, front, job []float64
	var fsyncTimes []time.Duration
	var fsyncs, writeBytes int64
	evals, fresh := 0, 0
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	end := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(rounds) == 0 || time.Now().Before(end) {
		et := newEvalTimes()
		fs := &countingFS{}
		rr, err := serveOnce(r, len(rounds), rng, server.Config{EvalHook: et.hook, DBFS: fs})
		if err != nil {
			return err
		}
		rounds = append(rounds, rr)
		c := fs.counts()
		fsyncs += c.fsyncs
		writeBytes += c.writeBytes
		fsyncTimes = append(fsyncTimes, fs.takeFsyncTimes()...)
		et.mu.Lock()
		for _, j := range rr.jobs {
			if j.err != nil {
				continue
			}
			tid := r.tr.newTrace()
			root := r.tr.add("serve.job", tid, 0, j.postAt, j.frontAt)
			r.tr.add("server.submit", tid, root, j.postAt, j.ackAt)
			r.tr.add("server.front", tid, root, j.doneAt, j.frontAt)
			submit = append(submit, ms(j.ackAt.Sub(j.postAt))*1e3)
			front = append(front, ms(j.frontAt.Sub(j.doneAt))*1e3)
			job = append(job, ms(j.frontAt.Sub(j.postAt)))
			if j.spec.resubmits >= 0 {
				continue
			}
			fresh++
			evals += j.status.Evaluations
			first, ok := et.first[j.id]
			if !ok {
				continue // fully warm: no fresh evaluation
			}
			last := et.last[j.id]
			r.tr.add("server.queue", tid, root, j.postAt, first)
			r.tr.add("server.search", tid, root, first, last)
			r.tr.add("server.finish", tid, root, last, j.doneAt)
			queue = append(queue, ms(first.Sub(j.postAt)))
			search = append(search, ms(last.Sub(first)))
			finish = append(finish, ms(j.doneAt.Sub(last)))
		}
		et.mu.Unlock()
	}
	var hv []float64
	checkServed(r, res, rounds, newProblems(), &hv)
	dedup := int64(0)
	for _, rr := range rounds {
		dedup += rr.dedupHits
	}
	res.add("server.submit_us_p50", median(submit), "us")
	res.add("server.queue_ms_p50", median(queue), "ms")
	res.add("server.search_ms_p50", median(search), "ms")
	res.add("server.finish_ms_p50", median(finish), "ms")
	res.add("server.front_us_p50", median(front), "us")
	res.add("server.dedup_hits_per_round", float64(dedup)/float64(len(rounds)), "count")
	res.add("server.evals_per_job", float64(evals)/float64(fresh), "count")
	res.add("server.front_hv", mean(hv), "ratio")
	res.add("server.store_fsyncs_per_job", float64(fsyncs)/float64(fresh), "count")
	res.add("server.store_write_bytes_per_eval", float64(writeBytes)/float64(evals), "B")
	res.add("server.store_fsync_us_p50", median(durations(fsyncTimes))*1e3, "us")
	res.add("trace.serve_job_ms_p50", median(job), "ms")
	return nil
}
