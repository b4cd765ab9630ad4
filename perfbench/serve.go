package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pmc/internal/litmus"
	"pmc/internal/pmcd"
)

// The serve workload: an in-process pmcd server (2 workers, the default
// memory LRU, a fresh disk store) on loopback, driven closed-loop by 2
// clients through pmcd.Client: each submits a job, fetches its result
// with wait, then submits the next. A round is one seeded script of
// scriptJobs jobs on a fresh server and store; a quarter of the
// submissions are first-time specs (catalog litmus programs, small
// sweeps, small fuzz campaigns), the rest repeat an earlier spec. The
// seed orders the script; the set of fresh specs is the same in every
// script, since fuzz program cost is heavy-tailed (see verify.go) and a
// seeded set moved the script's wall time by half between seeds.
const (
	serveClients = 2
	serveWorkers = 2
	scriptJobs   = 1000
	freshShare   = 0.25
	// freshSpan is how many leading jobs of a script hold its fresh
	// submissions.
	freshSpan = scriptJobs * 3 / 4
	// fuzzJobPrograms is the campaign size of a fuzz job.
	fuzzJobPrograms = 1
	// serveCodeVersion pins the fingerprint salt, so a body's address
	// does not depend on how the benchmark was built.
	serveCodeVersion = "perfbench"
)

// freshSpecs is the fixed set of specs every script submits for the first
// time: each catalog litmus program, one small sweep per simulate app,
// and one-program drf fuzz campaigns from a fixed seed sequence, enough
// to make freshShare of scriptJobs.
func freshSpecs() []pmcd.JobSpec {
	var specs []pmcd.JobSpec
	for _, p := range litmus.Catalog() {
		specs = append(specs, pmcd.JobSpec{Litmus: &pmcd.LitmusJob{Prog: p.Name}})
	}
	for _, app := range simApps {
		specs = append(specs, pmcd.JobSpec{Sweep: &pmcd.SweepJob{
			Apps: []string{app}, Backends: simBackends, Tiles: []int{4, 8, 16}, Small: true}})
	}
	seed := int64(corpusSeed*1_000_000 + 500_000)
	for len(specs) < int(freshShare*scriptJobs) {
		specs = append(specs, pmcd.JobSpec{Fuzz: &pmcd.FuzzJob{Seed: seed, N: fuzzJobPrograms, Mode: "drf"}})
		seed += fuzzJobPrograms
	}
	return specs
}

// jobScript is round k's job sequence for seed: the fresh specs in a
// seeded order at seeded positions among the first freshSpan jobs (the
// first job is always fresh), and everywhere else repeats of uniformly
// chosen earlier specs. Ending the script on repeats keeps one long fresh
// job from idling the other client at the end of the round, an artifact
// of the script's end that a serving system running on does not have.
func jobScript(seed int64, k int) []pmcd.JobSpec {
	rng := roundRand(seed, k)
	fresh := freshSpecs()
	rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	freshAt := map[int]bool{0: true}
	for _, pos := range rng.Perm(freshSpan - 1)[:len(fresh)-1] {
		freshAt[pos+1] = true
	}
	script := make([]pmcd.JobSpec, 0, scriptJobs)
	next := 0
	for i := 0; i < scriptJobs; i++ {
		if freshAt[i] {
			script = append(script, fresh[next])
			next++
		} else {
			script = append(script, fresh[rng.Intn(next)])
		}
	}
	return script
}

// jobOutcome classifies one submission for error_rate.
type jobOutcome int

const (
	jobOK       jobOutcome = iota
	jobFailed              // the job failed, or a call to the server did
	jobRefused             // the server refused the submission (503)
	jobMismatch            // a repeat's body differs from the first body
)

// jobResult is one client-observed job.
type jobResult struct {
	fingerprint string
	kind        string
	outcome     jobOutcome
	latency     time.Duration
	cached      bool
	err         error
}

// serveTally counts a round's outcomes: every submission is attempted;
// failed, refused and mismatched ones fail.
func serveTally(results []jobResult) (attempted, failed int64) {
	for _, r := range results {
		attempted++
		if r.outcome != jobOK {
			failed++
		}
	}
	return attempted, failed
}

// server is one round's pmcd instance.
type server struct {
	srv       *pmcd.Server
	http      *http.Server
	client    *pmcd.Client
	transport *http.Transport
	dir       string
	served    chan error
}

// startServer opens a disk store in the fresh directory dir, starts the
// job service and its HTTP listener on loopback, and returns a client for
// it. Stopping the server removes dir.
func startServer(dir string) (*server, error) {
	srv, err := pmcd.New(pmcd.Config{Workers: serveWorkers, CacheDir: dir, CodeVersion: serveCodeVersion})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	s := &server{
		srv:       srv,
		http:      &http.Server{Handler: srv.Handler()},
		transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients},
		dir:       dir,
		served:    make(chan error, 1),
	}
	s.client = &pmcd.Client{Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: s.transport}}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the listener and the job service down, waits for both, and
// removes the store.
func (s *server) stop() error {
	s.transport.CloseIdleConnections()
	err := s.http.Shutdown(context.Background())
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.srv.Close()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// serveRound is one executed script.
type serveRound struct {
	results []jobResult
	wall    time.Duration
	stats   pmcd.Stats
	bodies  map[string][]byte // first body per fingerprint
}

// driveRound runs script on s with serveClients closed-loop clients: each
// takes the script's next job once it has the result of its previous one,
// so the clients share the script's work however long each job takes.
// Every body is compared with the first body returned for its
// fingerprint.
func driveRound(s *server, script []pmcd.JobSpec, tr *tracer) *serveRound {
	r := &serveRound{results: make([]jobResult, len(script)), bodies: map[string][]byte{}}
	var mu sync.Mutex // guards r.bodies
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(script) {
					return
				}
				res, body := doJob(s.client, script[i], tr, int64(i))
				if res.outcome == jobOK {
					mu.Lock()
					if first, ok := r.bodies[res.fingerprint]; !ok {
						r.bodies[res.fingerprint] = body
					} else if !bytes.Equal(first, body) {
						res.outcome = jobMismatch
					}
					mu.Unlock()
				}
				r.results[i] = res
			}
		}()
	}
	wg.Wait()
	r.wall = time.Since(start)
	r.stats = s.srv.Stats()
	return r
}

// doJob submits one job and fetches its result. Untraced, it waits on the
// result call; traced, it follows the job's event stream to see when it
// started running, then fetches the result.
func doJob(c *pmcd.Client, spec pmcd.JobSpec, tr *tracer, op int64) (jobResult, []byte) {
	ctx := context.Background()
	res := jobResult{kind: spec.Kind()}
	start := time.Now()
	job := tr.begin("pmcd.job", 0, op)
	defer tr.end(job)
	s := tr.begin("pmcd.submit", job, op)
	st, err := c.Submit(ctx, spec)
	tr.end(s)
	if err != nil {
		res.outcome, res.err = jobFailed, err
		if strings.Contains(err.Error(), "HTTP 503") {
			res.outcome = jobRefused
		}
		return res, nil
	}
	res.fingerprint, res.cached = st.Fingerprint, st.State == pmcd.StateDone
	if tr != nil && !res.cached {
		submitted := time.Now()
		var running time.Time
		s := tr.begin("pmcd.events", job, op)
		_, err = c.Events(ctx, st.ID, func(ev pmcd.JobStatus) {
			if running.IsZero() && ev.State == pmcd.StateRunning {
				running = time.Now()
			}
		})
		tr.end(s)
		if !running.IsZero() {
			tr.record("pmcd.queue_wait", job, op, submitted, running)
			tr.record("pmcd.run", job, op, running, time.Now())
		}
		if err != nil {
			res.outcome, res.err = jobFailed, err
			return res, nil
		}
	}
	s = tr.begin("pmcd.result", job, op)
	body, err := c.Result(ctx, st.ID, tr == nil)
	tr.end(s)
	res.latency = time.Since(start)
	if err != nil {
		res.outcome, res.err = jobFailed, err
		return res, nil
	}
	return res, body
}

// check feeds a round's outcomes into the report: no failed, refused or
// mismatched job, and exactly one simulation per distinct spec.
func (r *serveRound) check(rep *report, k int) {
	attempted, failed := serveTally(r.results)
	rep.ops(attempted, failed)
	for i, res := range r.results {
		if res.outcome != jobOK {
			rep.problem("serve round %d job %d (%s): outcome %d: %v", k, i, res.kind, res.outcome, res.err)
			break
		}
	}
	if int64(len(r.bodies)) != r.stats.Simulations {
		rep.problem("serve round %d: %d simulations for %d distinct specs", k, r.stats.Simulations, len(r.bodies))
	}
	if r.stats.Failed != 0 {
		rep.problem("serve round %d: the server failed %d jobs", k, r.stats.Failed)
	}
}

// serveOutput is a round's exact output: the distinct result bodies and
// the service counters that do not depend on timing. Whether a repeat is
// answered from the store or attaches to the in-flight first submission
// depends on the clients' interleaving, so only their sum is exact.
type serveOutput struct {
	Simulations int64             `json:"simulations"`
	Repeats     int64             `json:"repeats"`
	Bodies      map[string][]byte `json:"bodies"`
}

func (r *serveRound) output() serveOutput {
	return serveOutput{Simulations: r.stats.Simulations, Repeats: r.stats.Cached + r.stats.Deduped, Bodies: r.bodies}
}

// sweepCycles adds the simulated makespan of every cell in the round's
// sweep bodies to byFP, keyed by the body's fingerprint.
func (r *serveRound) sweepCycles(byFP map[string][]float64) error {
	kinds := map[string]string{}
	for _, res := range r.results {
		kinds[res.fingerprint] = res.kind
	}
	for fp, body := range r.bodies {
		if kinds[fp] != "sweep" || byFP[fp] != nil {
			continue
		}
		var rows []struct {
			Cycles uint64 `json:"cycles"`
		}
		if err := json.Unmarshal(body, &rows); err != nil {
			return fmt.Errorf("sweep body %s: %w", fp, err)
		}
		for _, row := range rows {
			byFP[fp] = append(byFP[fp], float64(row.Cycles))
		}
	}
	return nil
}

// serveOnce sets up a fresh server, drives script k through it and shuts
// it down.
func serveOnce(e *env, seed int64, k int, tr *tracer) (*serveRound, error) {
	script := jobScript(seed, k)
	dir, err := e.tempDir("store-")
	if err != nil {
		return nil, err
	}
	s, err := startServer(dir)
	if err != nil {
		return nil, err
	}
	r := driveRound(s, script, tr)
	if err := s.stop(); err != nil {
		return nil, err
	}
	return r, nil
}

func runServe(e *env, seed int64, seconds time.Duration, rep *report) ([]round, latencies, error) {
	set := &setups{what: "open a store in a fresh directory, start the server and its listener", fn: func(sw *stopwatch) error {
		dir, err := e.tempDir("store-")
		if err != nil {
			return err
		}
		sw.start()
		s, err := startServer(dir)
		sw.stop()
		if err != nil {
			return err
		}
		return s.stop()
	}}
	var jobs latencies
	cycles := map[string][]float64{}
	rounds, err := runRounds(rep, seconds, set, func(k int, r *round) error {
		sr, err := serveOnce(e, seed, k, nil)
		if err != nil {
			return err
		}
		sr.check(rep, k)
		r.wall, r.jobs, r.programs = sr.wall, len(sr.results), int(sr.stats.Simulations)
		for _, res := range sr.results {
			if res.outcome == jobOK {
				jobs = append(jobs, res.latency)
			}
		}
		return sr.sweepCycles(cycles)
	})
	if err != nil {
		return nil, nil, err
	}
	var all []float64
	for _, cs := range cycles {
		all = append(all, cs...)
	}
	rep.add("sim_cycles_geomean", geomean(all), "cycles", fmt.Sprintf("exact, over the %d cells of %d distinct sweep results", len(all), len(cycles)))
	return rounds, jobs, nil
}

// passServe runs round 0 of the script; traced, it also reports the
// service's layers from the client-side spans and the server's counters.
func passServe(e *env, seed int64, tr *tracer, rep *report) (any, time.Duration, error) {
	r, err := serveOnce(e, seed, 0, tr)
	if err != nil {
		return nil, 0, err
	}
	r.check(rep, 0)
	if tr != nil {
		serveLayers(rep, tr.snapshot(), r)
	}
	return r.output(), r.wall, nil
}

// serveLayers reports the pmcd layer: per-step latencies from the client
// spans, and the service and store counters.
func serveLayers(rep *report, spans []Span, r *serveRound) {
	for _, step := range []string{"submit", "queue_wait", "run", "result"} {
		s := summarize(durations(spans, "pmcd."+step), 99)
		rep.add("pmcd."+step+"_p50_ms", s.P50, "ms", fmt.Sprintf("median of %d", s.N))
		rep.add("pmcd."+step+"_p99_ms", s.Tail, "ms", s.note())
	}
	var hits []float64
	var refused int
	for _, res := range r.results {
		if res.cached && res.outcome == jobOK {
			hits = append(hits, float64(res.latency.Nanoseconds())/1e6)
		}
		if res.outcome == jobRefused {
			refused++
		}
	}
	h := summarize(hits, 99)
	rep.add("pmcd.hit_p99_ms", h.Tail, "ms", "store hits at submit, "+h.note())
	st := r.stats
	ratio := 0.0
	if st.Submitted > 0 {
		ratio = float64(st.Cached+st.Deduped) / float64(st.Submitted)
	}
	rep.add("pmcd.hit_ratio", ratio, "ratio", fmt.Sprintf("(%d cached + %d deduped) of %d submitted", st.Cached, st.Deduped, st.Submitted))
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"pmcd.dedups", st.Deduped},
		{"pmcd.simulations", st.Simulations},
		{"pmcd.store_mem_hits", st.Store.MemHits},
		{"pmcd.store_disk_hits", st.Store.DiskHits},
		{"pmcd.store_misses", st.Store.Misses},
		{"pmcd.store_puts", st.Store.Puts},
		{"pmcd.rejected", int64(refused)},
	} {
		rep.add(c.name, float64(c.v), "count", "")
	}
}
