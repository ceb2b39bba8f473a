package main

import (
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"matchsim"
	"matchsim/api"
	"matchsim/client"
)

// serveConfig describes a serving workload: open-loop Poisson arrivals
// of small paper instances against real matchd processes.
type serveConfig struct {
	Cluster      bool      `json:"cluster"`
	Topology     string    `json:"topology"`
	Sizes        []int     `json:"sizes"`
	SizeWeights  []int     `json:"size_weights"`
	PoolPerSize  int       `json:"instances_per_size"`
	RepeatFrac   float64   `json:"repeat_frac"`
	RepeatWindow int       `json:"repeat_window"`
	JobWorkers   int       `json:"job_workers"`
	WarmupRate   float64   `json:"warmup_rps"`
	WarmupSecs   float64   `json:"warmup_seconds"`
	RefRate      float64   `json:"reference_rps"`
	RefSecs      float64   `json:"reference_seconds"`
	Ladder       []float64 `json:"ladder_rps"`
	RungSecs     float64   `json:"rung_seconds"`
	Deadline     float64   `json:"deadline_s"`
	Conns        int       `json:"conns"`
	PollFloor    float64   `json:"poll_floor_s"`
	PollFrac     float64   `json:"poll_frac_of_age"`
	SetupReps    int       `json:"setup_reps"`
	ResolveEvery int       `json:"resolve_every"`
	ResolveMax   int       `json:"resolve_max"`
	TraceFetch   int       `json:"trace_fetch_max"`
}

func serveDefaults(e *env, cluster bool) serveConfig {
	cfg := serveConfig{
		Cluster:  cluster,
		Topology: "one matchd, shipped defaults",
		Sizes:    []int{8, 12, 16},
		// Half the new jobs are n = 12, so the median job falls well inside
		// one size class. With equal weights it sat on the edge between
		// the n = 8 and n = 12 classes (cache hits are the fastest fifth)
		// and jumped between them from seed to seed: 6 to 14 ms.
		SizeWeights:  []int{1, 2, 1},
		PoolPerSize:  64,
		RepeatFrac:   0.25,
		RepeatWindow: 4,
		JobWorkers:   1,
		WarmupRate:   40,
		WarmupSecs:   0.5,
		RefRate:      40,
		RefSecs:      0.5 * e.seconds,
		Ladder:       []float64{60, 90, 120, 160, 200, 240},
		RungSecs:     0.08 * e.seconds,
		Deadline:     1,
		Conns:        runtime.NumCPU(),
		PollFloor:    0.001,
		PollFrac:     0.125,
		SetupReps:    41,
		ResolveEvery: 8,
		ResolveMax:   24,
		TraceFetch:   200,
	}
	if cluster {
		cfg.Topology = "matchd -coordinator over two matchd workers, shipped defaults"
		cfg.WarmupRate, cfg.RefRate = 15, 15
		cfg.Ladder = []float64{30, 60, 90, 120, 160}
	}
	return cfg
}

func (cfg serveConfig) weightSum() int {
	t := 0
	for _, w := range cfg.SizeWeights {
		t += w
	}
	return t
}

// pickSize maps r in [0, weightSum) to a size index.
func (cfg serveConfig) pickSize(r int) int {
	for i, w := range cfg.SizeWeights {
		if r < w {
			return i
		}
		r -= w
	}
	return len(cfg.SizeWeights) - 1
}

func runServe(e *env) (*result, error)        { return serveWorkload(e, serveDefaults(e, false)) }
func runServeCluster(e *env) (*result, error) { return serveWorkload(e, serveDefaults(e, true)) }

// poolInstance is one instance the arrivals draw from.
type poolInstance struct {
	tasks   int
	json    []byte
	problem *matchsim.Problem
}

// arrival is one scheduled submission: instance pool index and job seed.
type arrival struct {
	due  time.Duration // offset from the rung start
	inst int
	seed uint64
}

// schedule draws a Poisson arrival process of the given rate over secs
// seconds; about RepeatFrac of the arrivals repeat one of the previous
// RepeatWindow arrivals' (instance, options, seed).
func schedule(seed, stream uint64, rate, secs float64, cfg serveConfig) []arrival {
	rng := newRNG(seed, stream)
	var out []arrival
	for t := rng.ExpFloat64() / rate; t < secs; t += rng.ExpFloat64() / rate {
		a := arrival{due: time.Duration(t * float64(time.Second))}
		if n := len(out); n > 0 && rng.Float64() < cfg.RepeatFrac {
			prev := out[n-1-rng.IntN(min(cfg.RepeatWindow, n))]
			a.inst, a.seed = prev.inst, prev.seed
		} else {
			a.inst = cfg.pickSize(rng.IntN(cfg.weightSum()))*cfg.PoolPerSize + rng.IntN(cfg.PoolPerSize)
			a.seed = rng.Uint64() >> 1
		}
		out = append(out, a)
	}
	return out
}

// cluster is the set of daemons one serving workload runs against; front
// takes the load.
type cluster struct {
	front   *daemon
	workers []*daemon // the daemons that solve (front itself when standalone)
	all     []*daemon
}

// startCluster launches the workload's daemons and waits until every one
// answers /readyz. It returns the set-up time.
func startCluster(e *env, cfg serveConfig, tag string) (*cluster, float64, error) {
	dir := filepath.Join(e.outDir, "daemons", tag)
	t0 := time.Now()
	c := &cluster{}
	if !cfg.Cluster {
		d, err := startDaemon(e.matchd, filepath.Join(dir, "matchd"), tag)
		if err != nil {
			return nil, 0, err
		}
		c.front, c.workers = d, []*daemon{d}
	} else {
		type started struct {
			d   *daemon
			err error
		}
		ch := make(chan started, 2)
		for i := 0; i < 2; i++ {
			name := fmt.Sprintf("%s-worker%d", tag, i)
			go func() {
				d, err := startDaemon(e.matchd, filepath.Join(dir, name), name)
				ch <- started{d, err}
			}()
		}
		var urls []string
		for i := 0; i < 2; i++ {
			s := <-ch
			if s.err != nil {
				return nil, 0, s.err
			}
			c.workers = append(c.workers, s.d)
			urls = append(urls, s.d.url)
		}
		d, err := startDaemon(e.matchd, filepath.Join(dir, "coordinator"), tag+"-coordinator",
			"-coordinator", "-workers="+strings.Join(urls, ","))
		if err != nil {
			return nil, 0, err
		}
		c.front = d
	}
	c.all = []*daemon{c.front}
	if cfg.Cluster {
		c.all = append(c.all, c.workers...)
	}
	for _, d := range c.all {
		if err := d.waitReady(30 * time.Second); err != nil {
			return nil, 0, err
		}
	}
	return c, time.Since(t0).Seconds(), nil
}

func (c *cluster) stop() {
	for _, d := range c.all {
		d.stop()
	}
}

// scrapeAll sums /metrics over the given daemons.
func scrapeAll(ds []*daemon) (map[string]float64, error) {
	total := map[string]float64{}
	for _, d := range ds {
		m, err := d.scrape()
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			total[k] += v
		}
	}
	return total, nil
}

func delta(after, before map[string]float64, name string) float64 {
	return after[name] - before[name]
}

func serveWorkload(e *env, cfg serveConfig) (*result, error) {
	res := &result{config: cfg}

	// Inputs: PoolPerSize paper instances per size, drawn from the seed.
	rng := newRNG(e.seed, 1)
	var pool []poolInstance
	var newProblem []float64
	for _, n := range cfg.Sizes {
		for i := 0; i < cfg.PoolPerSize; i++ {
			raw, err := paperInstance(rng.Uint64()>>1, n)
			if err != nil {
				return nil, err
			}
			var compact bytes.Buffer
			if err := json.Compact(&compact, raw); err != nil {
				return nil, err
			}
			t0 := time.Now()
			p, err := matchsim.ReadProblem(bytes.NewReader(compact.Bytes()))
			newProblem = append(newProblem, time.Since(t0).Seconds())
			if err != nil {
				return nil, err
			}
			pool = append(pool, poolInstance{tasks: n, json: compact.Bytes(), problem: p})
		}
	}
	ref := schedule(e.seed, 100, cfg.RefRate, cfg.RefSecs, cfg)
	warm := schedule(e.seed, 99, cfg.WarmupRate, cfg.WarmupSecs, cfg)

	// Set-up, several times: half of the start-ups before the measured
	// window, where the last set of daemons serves the load, and half
	// after it, so that a slow spell of the host does not weigh on every
	// sample.
	var setups []float64
	var c *cluster
	for i := 0; i < (cfg.SetupReps+1)/2; i++ {
		if c != nil {
			c.stop()
		}
		var s float64
		var err error
		c, s, err = startCluster(e, cfg, fmt.Sprintf("setup%d", i))
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	// setUpAfter runs the second half and returns every set-up time.
	setUpAfter := func() ([]float64, error) {
		for i := 0; i < cfg.SetupReps/2; i++ {
			c, s, err := startCluster(e, cfg, fmt.Sprintf("setup-after%d", i))
			if err != nil {
				return nil, err
			}
			c.stop()
			setups = append(setups, s)
		}
		return setups, nil
	}

	lg := &loadgen{e: e, cfg: cfg, pool: pool}
	lg.runRung(c, warm, false) // untimed: connections, caches and lazy set-up

	if e.traced {
		return serveTraced(e, cfg, res, c, lg, pool, ref, setUpAfter, newProblem)
	}

	before, err := scrapeAll(c.workers)
	if err != nil {
		return nil, err
	}
	rung := lg.runRung(c, ref, false)
	after, err := scrapeAll(c.workers)
	if err != nil {
		return nil, err
	}
	rss, each, err := peakRSS(c)
	if err != nil {
		return nil, err
	}
	res.extra = append(res.extra, each...)
	rung.account(res, cfg.RefRate, false)

	// The SLO ladder: rates above the reference rate until one breaks
	// the SLO (tail over the deadline, any failure, or a growing backlog).
	slo := 0.0
	if rung.pass(cfg) {
		slo = cfg.RefRate
	}
	for i, rate := range cfg.Ladder {
		if slo < cfg.RefRate {
			break
		}
		r := lg.runRung(c, schedule(e.seed, uint64(200+i), rate, cfg.RungSecs, cfg), false)
		ok := r.pass(cfg)
		r.account(res, rate, !ok)
		if !ok {
			break
		}
		slo = rate
	}
	lg.resolve(res, rung)
	c.stop()
	if setups, err = setUpAfter(); err != nil {
		return nil, err
	}

	res.endToEnd = windowMetrics(cfg, rung, before, after, setups, rss, len(c.all), pool)
	res.extra = append(res.extra,
		metric{Name: "slo_rps", Value: slo, Unit: "1/s", N: len(cfg.Ladder) + 1, Note: fmt.Sprintf("highest ladder rate with tail <= %gs, no failures, no growing backlog", cfg.Deadline)},
		metric{Name: "failed_frac", Value: ratio(float64(res.failed), float64(res.attempted)), Unit: "ratio", N: res.attempted},
		metric{Name: "loadgen.late_s_max", Value: rung.lateMax, Unit: "s", N: rung.sent, Note: "reference rung"},
		metric{Name: "loadgen.conns", Value: float64(lg.dials), Unit: "count", N: 1, Note: fmt.Sprintf("most connections one rung dialed, cap %d", cfg.Conns)})
	return res, nil
}

// serveTraced is the traced run: the reference rung once with the
// benchmark's spans on and once with them off, each on fresh daemons so
// both see an empty result cache, in an order that alternates with the
// seed. The traced rung gives the per-layer table.
func serveTraced(e *env, cfg serveConfig, res *result, c *cluster, lg *loadgen, pool []poolInstance,
	ref []arrival, setUpAfter func() ([]float64, error), newProblem []float64) (*result, error) {
	var traced, plain *rungResult
	var before, after map[string]float64
	var coordBefore, coordAfter map[string]float64
	var rss float64
	for pass := 0; pass < 2; pass++ {
		withSpans := (uint64(pass)+e.seed)%2 == 0
		if pass == 1 {
			c.stop()
			var err error
			if c, _, err = startCluster(e, cfg, "overhead"); err != nil {
				return nil, err
			}
			lg.runRung(c, schedule(e.seed, 98, cfg.WarmupRate, cfg.WarmupSecs, cfg), false)
		}
		if !withSpans {
			plain = lg.runRung(c, ref, false)
			plain.account(res, cfg.RefRate, false)
			continue
		}
		var err error
		if before, err = scrapeAll(c.workers); err != nil {
			return nil, err
		}
		if coordBefore, err = c.front.scrape(); err != nil {
			return nil, err
		}
		traced = lg.runRung(c, ref, true)
		if after, err = scrapeAll(c.workers); err != nil {
			return nil, err
		}
		if coordAfter, err = c.front.scrape(); err != nil {
			return nil, err
		}
		if rss, _, err = peakRSS(c); err != nil {
			return nil, err
		}
		traced.account(res, cfg.RefRate, false)
		traced.fetchDaemonTraces(c, cfg.TraceFetch)
		lg.resolve(res, traced)
	}
	c.stop()
	setups, err := setUpAfter()
	if err != nil {
		return nil, err
	}

	m := newMetricSet(layerDefs)
	m.set("setup.new_problem_s", median(newProblem), len(newProblem), "benchmark-side ReadProblem of the instance pool")
	m.set("setup.daemon_ready_s", median(setups), len(setups))
	d := func(name string) float64 { return delta(after, before, name) }
	solves := d("matchd_solves_total")
	draws := d("matchd_solver_draws_total")
	sample := d("matchd_solver_sample_phase_seconds_sum")
	sel := d("matchd_solver_select_phase_seconds_sum")
	upd := d("matchd_solver_update_phase_seconds_sum")
	iters := d("matchd_solver_iterations_total")
	m.set("ce.sample_s", ratio(sample, solves), int(solves), "per solve, daemon /metrics")
	m.set("ce.ns_per_draw", ratio(sample*1e9, draws), int(draws))
	m.set("stochmat.reject_tries_per_draw", ratio(d("matchd_solver_reject_tries_total"), draws), int(draws))
	m.set("stochmat.fallback_per_draw", ratio(d("matchd_solver_fallback_draws_total"), draws), int(draws))
	m.set("cost.pruned_frac", ratio(d("matchd_solver_pruned_draws_total"), draws), int(draws))
	m.set("cost.rescored_frac", ratio(d("matchd_solver_rescored_draws_total"), draws), int(draws))
	_, evals, _ := traced.solveStats(pool)
	m.set("cost.evals", mean(evals), len(evals), "per unique solve")
	m.set("ce.iterations", ratio(iters, solves), int(solves), "per solve")
	m.set("ce.iter_s_p50", median(traced.iterGaps), len(traced.iterGaps), "gaps between the daemon's per-iteration span events")
	m.set("ce.select_s", ratio(sel, solves), int(solves), "per solve")
	m.set("ce.update_s", ratio(upd, solves), int(solves), "per solve")
	m.set("ce.idle_frac", ratio(d("matchd_solver_idle_seconds_total"), float64(cfg.JobWorkers)*sample), int(iters))
	m.set("ce.accounted_frac", ratio(sample+sel+upd, d("matchd_solve_seconds_total")), int(solves), "(sample+select+update)/solve seconds")
	rebuilt, skipped := d("matchd_solver_rebuilt_rows_total"), d("matchd_solver_skipped_rows_total")
	m.set("stochmat.rebuilt_rows_frac", ratio(rebuilt, rebuilt+skipped), int(iters))
	sub, stat, rs := e.spans.durations("submit"), e.spans.durations("status"), e.spans.durations("result")
	m.set("httpapi.submit_s_p50", median(sub), len(sub), "client-timed RPC")
	m.set("httpapi.status_s_p50", median(stat), len(stat), "client-timed RPC")
	m.set("httpapi.result_s_p50", median(rs), len(rs), "client-timed RPC")
	qv, qrank, qbeyond := tail(traced.queueWaits)
	m.set("jobs.queue_wait_s_p50", median(traced.queueWaits), len(traced.queueWaits), "Started - Created")
	m.set("jobs.queue_wait_s_tail", qv, len(traced.queueWaits), fmt.Sprintf("p%g, %d beyond", qrank, qbeyond))
	m.set("jobs.run_s_p50", median(traced.runs), len(traced.runs), "Finished - Started")
	m.set("jobs.cache_hit_frac", ratio(d("matchd_cache_hits_total"), d("matchd_jobs_submitted_total")), int(d("matchd_jobs_submitted_total")))
	m.set("jobs.solves", solves, 1)
	if cfg.Cluster {
		cd := func(name string) float64 { return delta(coordAfter, coordBefore, name) }
		sub := cd("matchd_cluster_jobs_submitted_total")
		m.set("cluster.hop_s_p50", median(traced.hops), len(traced.hops), "coordinator job time - worker run time")
		m.set("cluster.singleflight_frac", ratio(cd("matchd_cluster_singleflight_hits_total"), sub), int(sub))
		m.set("cluster.cache_hit_frac", ratio(cd("matchd_cluster_cache_hits_total"), sub), int(sub))
		m.set("cluster.routed", cd("matchd_cluster_routed_total"), 1)
		m.set("cluster.handoffs", cd("matchd_cluster_handoffs_total"), 1, "expected 0")
	}
	tp, pp := median(traced.latencies()), median(plain.latencies())
	m.set("telemetry.overhead_frac", ratio(tp, pp)-1, len(traced.jobs), "job_p50_s traced vs untraced, same arrivals, fresh daemons")
	m.set("loadgen.late_s_max", traced.lateMax, traced.sent)
	m.set("loadgen.conns", float64(lg.dials), 1, fmt.Sprintf("most connections one rung dialed, cap %d", cfg.Conns))
	m.set("loadgen.detect_lag_s_p50", median(traced.detectLags), len(traced.detectLags), "client detection - daemon Finished")
	res.layers = m.list()
	res.endToEnd = windowMetrics(cfg, traced, before, after, setups, rss, len(c.all), pool)
	return res, nil
}

// windowMetrics is the end-to-end table of one measured window.
func windowMetrics(cfg serveConfig, rung *rungResult, before, after map[string]float64,
	setups []float64, rss float64, daemons int, pool []poolInstance) []metric {
	e2e := newMetricSet(endToEndDefs)
	e2e.set("setup_s", median(setups), len(setups), "median time to /readyz of every daemon")
	solveS, _, execMean := rung.solveStats(pool)
	e2e.set("solve_s", median(solveS), len(solveS), "median MappingTime of unique solved jobs")
	e2e.set("draws_per_s", ratio(delta(after, before, "matchd_solver_draws_total"), delta(after, before, "matchd_solve_seconds_total")),
		int(delta(after, before, "matchd_solves_total")), "daemon /metrics over the window")
	e2e.set("exec_mean", execMean, len(solveS), "unique jobs of the window, sizes weighted equally")
	e2e.set("peak_rss_mb", rss, daemons, "sum of VmHWM over the daemons after the window")
	setJobLatency(e2e, rung.latencies(), fmt.Sprintf("at %g rps, due time to verified result", cfg.RefRate))
	return e2e.list()
}

// peakRSS sums the daemons' VmHWM and lists each one.
func peakRSS(c *cluster) (float64, []metric, error) {
	var total float64
	var each []metric
	for _, d := range c.all {
		mb, err := d.rssMB()
		if err != nil {
			return 0, nil, err
		}
		total += mb
		each = append(each, metric{Name: "peak_rss_mb." + d.name, Value: mb, Unit: "MB", N: 1})
	}
	return total, each, nil
}

// loadgen is the open-loop generator: one dispatcher releases each
// submission at its due time and each status poll at its scheduled
// time to a fixed pool of cfg.Conns workers, over at most cfg.Conns
// connections.
type loadgen struct {
	e     *env
	cfg   serveConfig
	pool  []poolInstance
	dials int64 // most connections one rung dialed
}

// jobRun is one arrival's life as the client sees it.
type jobRun struct {
	a        arrival
	due      time.Time
	id       string
	late     float64
	latency  float64
	detected time.Time
	info     api.JobInfo
	res      api.JobResult
	failure  string
	wrong    bool
	span     *span
}

// rungResult is what one rung of arrivals produced.
type rungResult struct {
	jobs       []*jobRun
	sent       int
	lateMax    float64
	queueWaits []float64
	runs       []float64
	hops       []float64
	iterGaps   []float64
	detectLags []float64
}

type task struct {
	at   time.Time
	job  *jobRun
	poll bool
}

// runRung replays arrivals against c and returns once every job has a
// verified result or has failed (deadline misses included).
func (lg *loadgen) runRung(c *cluster, arrivals []arrival, traced bool) *rungResult {
	var mu sync.Mutex
	var dials atomic.Int64
	hc := loadClient(lg.cfg.Conns, &dials)
	defer hc.CloseIdleConnections()
	cl := client.New(c.front.url).WithHTTPClient(hc)
	rr := &rungResult{}
	start := time.Now().Add(20 * time.Millisecond)
	deadline := time.Duration(lg.cfg.Deadline * float64(time.Second))

	// Results by (instance, seed), to check repeats bit for bit.
	firstByKey := map[[2]uint64]*jobRun{}
	var keyMu sync.Mutex

	q := newTaskQueue()
	for _, a := range arrivals {
		j := &jobRun{a: a, due: start.Add(a.due)}
		rr.jobs = append(rr.jobs, j)
		q.push(task{at: j.due, job: j})
	}
	pending := len(arrivals)
	var pendMu sync.Mutex
	finish := func(j *jobRun) {
		j.span.finish()
		pendMu.Lock()
		pending--
		if pending == 0 {
			q.close()
		}
		pendMu.Unlock()
	}
	if pending == 0 {
		q.close()
	}
	rpc := func(j *jobRun, name string, f func(context.Context) error) error {
		var s *span
		if traced {
			s = lg.e.spans.start(name, j.span)
		}
		// Far past the deadline: only a hung daemon takes this long.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := f(ctx)
		cancel()
		s.finish()
		return err
	}
	complete := func(j *jobRun) {
		if err := rpc(j, "result", func(ctx context.Context) (err error) { j.res, err = cl.Result(ctx, j.id); return }); err != nil {
			j.failure = "result: " + err.Error()
			finish(j)
			return
		}
		p := lg.pool[j.a.inst]
		err := checkSolution(p.problem, j.res.Mapping, j.res.Exec)
		key := [2]uint64{uint64(j.a.inst), j.a.seed}
		keyMu.Lock()
		if first := firstByKey[key]; err == nil && first != nil {
			err = sameResult(first.res.Mapping, first.res.Exec, j.res.Mapping, j.res.Exec)
		} else if err == nil {
			firstByKey[key] = j
		}
		keyMu.Unlock()
		done := time.Now()
		j.latency = done.Sub(j.due).Seconds()
		switch {
		case err != nil:
			j.failure, j.wrong = err.Error(), true
		case done.Sub(j.due) > deadline:
			j.failure = fmt.Sprintf("deadline miss: result after %.3fs", j.latency)
		}
		finish(j)
	}
	handle := func(t task) {
		j := t.job
		now := time.Now()
		if !t.poll {
			j.late = now.Sub(j.due).Seconds()
			if traced {
				j.span = lg.e.spans.start("job", nil)
				j.span.Start = j.due
			}
			a := j.a
			req := api.SubmitRequest{
				Instance: lg.pool[a.inst].json,
				Solver:   api.SolverMaTCH,
				Options:  api.SolverOptions{Seed: a.seed, Workers: lg.cfg.JobWorkers},
			}
			var info api.JobInfo
			err := rpc(j, "submit", func(ctx context.Context) (err error) { info, err = cl.Submit(ctx, req); return })
			mu.Lock()
			rr.sent++
			rr.lateMax = math.Max(rr.lateMax, j.late)
			mu.Unlock()
			if err != nil {
				j.failure = "submit refused: " + err.Error()
				finish(j)
				return
			}
			j.id, j.info = info.ID, info
			if info.State == api.StateDone {
				j.detected = time.Now()
				complete(j)
				return
			}
		} else {
			if now.Sub(j.due) > deadline {
				j.failure = "deadline miss: no result within the deadline"
				finish(j)
				return
			}
			var info api.JobInfo
			if err := rpc(j, "status", func(ctx context.Context) (err error) { info, err = cl.Info(ctx, j.id); return }); err != nil {
				j.failure = "status: " + err.Error()
				finish(j)
				return
			}
			j.info = info
			switch info.State {
			case api.StateDone:
				j.detected = time.Now()
				complete(j)
				return
			case api.StateFailed, api.StateCancelled:
				j.failure = "job " + info.State + ": " + info.Error
				finish(j)
				return
			}
		}
		age := time.Since(j.due).Seconds()
		wait := math.Max(lg.cfg.PollFloor, lg.cfg.PollFrac*age)
		q.push(task{at: time.Now().Add(time.Duration(wait * float64(time.Second))), job: j, poll: true})
	}

	work := make(chan task)
	var wg sync.WaitGroup
	for i := 0; i < lg.cfg.Conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range work {
				handle(t)
			}
		}()
	}
	for {
		t, ok := q.popDue()
		if !ok {
			break
		}
		work <- t
	}
	close(work)
	wg.Wait()

	lg.dials = max(lg.dials, dials.Load())
	for _, j := range rr.jobs {
		if j.failure != "" || j.info.CacheHit {
			continue
		}
		if !j.info.Finished.IsZero() {
			rr.detectLags = append(rr.detectLags, j.detected.Sub(j.info.Finished).Seconds())
		}
		if !lg.cfg.Cluster && !j.info.Started.IsZero() {
			rr.queueWaits = append(rr.queueWaits, j.info.Started.Sub(j.info.Created).Seconds())
			rr.runs = append(rr.runs, j.info.Finished.Sub(j.info.Started).Seconds())
		}
	}
	return rr
}

// latencies are the due-to-verified-result times of successful jobs.
func (rr *rungResult) latencies() []float64 {
	var out []float64
	for _, j := range rr.jobs {
		if j.failure == "" {
			out = append(out, j.latency)
		}
	}
	return out
}

// uniqueJobs returns, per distinct (instance, seed), the first successful
// job whose result the solver produced (not a cache hit).
func (rr *rungResult) uniqueJobs() []*jobRun {
	seen := map[[2]uint64]bool{}
	var out []*jobRun
	for _, j := range rr.jobs {
		key := [2]uint64{uint64(j.a.inst), j.a.seed}
		if j.failure != "" || j.res.CacheHit || seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, j)
	}
	return out
}

// solveStats returns the unique jobs' MappingTimes and Evaluations, and
// their mean ET with every instance size weighted equally, so the mix of
// sizes a seed happens to draw does not move it.
func (rr *rungResult) solveStats(pool []poolInstance) (mappingTimes, evals []float64, execMean float64) {
	bySize := map[int][]float64{}
	for _, j := range rr.uniqueJobs() {
		mappingTimes = append(mappingTimes, j.res.MappingTime.Seconds())
		evals = append(evals, float64(j.res.Evaluations))
		n := pool[j.a.inst].tasks
		bySize[n] = append(bySize[n], j.res.Exec)
	}
	for _, execs := range bySize {
		execMean += mean(execs) / float64(len(bySize))
	}
	return mappingTimes, evals, execMean
}

// pass reports whether the rung met the SLO: every job verified within
// the deadline, tail within the deadline, and no growing backlog (the
// last third of arrivals not waiting markedly longer than the first).
func (rr *rungResult) pass(cfg serveConfig) bool {
	for _, j := range rr.jobs {
		if j.failure != "" {
			return false
		}
	}
	lats := rr.latencies()
	if tv, _, _ := tail(lats); tv > cfg.Deadline {
		return false
	}
	k := len(lats) / 3
	if k >= 10 {
		first, last := median(lats[:k]), median(lats[len(lats)-k:])
		if last > 2*first+0.05 {
			return false
		}
	}
	return true
}

// account adds the rung's jobs to the run's tally and prints a rung line.
// Failures of the rung that broke the SLO ladder are that ladder's
// measurement and are reported, not counted; wrong outputs always count.
func (rr *rungResult) account(res *result, rate float64, breaking bool) {
	missed, wrong := 0, 0
	for _, j := range rr.jobs {
		res.attempted++
		switch {
		case j.wrong:
			wrong++
			res.fail("%s", j.failure)
		case j.failure != "":
			missed++
			if !breaking {
				res.fail("%s", j.failure)
			}
		}
	}
	lats := rr.latencies()
	tv, rank, _ := tail(lats)
	note := fmt.Sprintf("p50 %.4fs, p%g %.4fs, %d missed, %d wrong, generator late by up to %.4fs",
		median(lats), rank, tv, missed, wrong, rr.lateMax)
	if breaking {
		note += "; breaks the SLO, ends the ladder"
	}
	res.extra = append(res.extra, metric{Name: fmt.Sprintf("rung.%grps", rate), Value: float64(len(lats)), Unit: "jobs", N: len(rr.jobs), Note: note})
}

// resolve re-solves a fixed subset of the rung's unique jobs with the
// library, outside any timed window, and requires bit-identical results.
func (lg *loadgen) resolve(res *result, rr *rungResult) {
	done := 0
	seen := map[[2]uint64]bool{}
	for i, j := range rr.jobs {
		key := [2]uint64{uint64(j.a.inst), j.a.seed}
		if i%lg.cfg.ResolveEvery != 0 || j.failure != "" || seen[key] {
			continue
		}
		seen[key] = true
		if done >= lg.cfg.ResolveMax {
			break
		}
		done++
		sol, err := matchsim.SolveMaTCH(lg.pool[j.a.inst].problem, matchsim.MaTCHOptions{Seed: j.a.seed, Workers: lg.cfg.JobWorkers})
		if err != nil {
			res.check(err)
			continue
		}
		res.check(sameResult(sol.Mapping, sol.Exec, j.res.Mapping, j.res.Exec))
	}
}

// fetchDaemonTraces reads, for up to max solved jobs, the daemon-side
// span trees (/v1/traces) and job documents: per-iteration event gaps
// from the solve span, and on a cluster the worker job behind each
// coordinator job (from the "routed" span event) for queue, run and hop
// times.
func (rr *rungResult) fetchDaemonTraces(c *cluster, max int) {
	ctx := context.Background()
	byURL := map[string]*daemon{}
	for _, d := range c.workers {
		byURL[d.url] = d
	}
	fetched := 0
	for _, j := range rr.jobs {
		if fetched >= max {
			break
		}
		if j.failure != "" || j.info.CacheHit || j.info.TraceID == "" {
			continue
		}
		fetched++
		solveHost := c.front
		if c.front != c.workers[0] {
			doc, err := c.front.admin.Trace(ctx, j.info.TraceID)
			if err != nil {
				continue
			}
			worker, workerJob := routedTo(doc.Spans)
			w := byURL[worker]
			if w == nil {
				continue // rode another job's flight (singleflight)
			}
			wi, err := w.admin.Info(ctx, workerJob)
			if err != nil || wi.Started.IsZero() {
				continue
			}
			run := wi.Finished.Sub(wi.Started).Seconds()
			rr.queueWaits = append(rr.queueWaits, wi.Started.Sub(wi.Created).Seconds())
			rr.runs = append(rr.runs, run)
			rr.hops = append(rr.hops, j.info.Finished.Sub(j.info.Created).Seconds()-run)
			solveHost = w
		}
		doc, err := solveHost.admin.Trace(ctx, j.info.TraceID)
		if err != nil {
			continue
		}
		rr.iterGaps = append(rr.iterGaps, iterationGaps(doc.Spans)...)
	}
}

// routedTo finds the worker and worker job of a coordinator job's
// "routed" span event.
func routedTo(spans []api.Span) (worker, job string) {
	for _, s := range spans {
		for _, ev := range s.Events {
			if ev.Name == "routed" {
				return ev.Attrs["worker"], ev.Attrs["worker_job"]
			}
		}
		if w, j := routedTo(s.Children); w != "" {
			return w, j
		}
	}
	return "", ""
}

// iterationGaps returns the seconds between consecutive "iter" events of
// every "solve" span in the tree.
func iterationGaps(spans []api.Span) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == "solve" {
			var prev int64
			for _, ev := range s.Events {
				if ev.Name == "iter" {
					out = append(out, float64(ev.OffsetNs-prev)/1e9)
					prev = ev.OffsetNs
				}
			}
		}
		out = append(out, iterationGaps(s.Children)...)
	}
	return out
}

// taskQueue releases tasks at their scheduled times, earliest first.
type taskQueue struct {
	mu     sync.Mutex
	h      taskHeap
	closed bool
	wake   chan struct{}
}

func newTaskQueue() *taskQueue { return &taskQueue{wake: make(chan struct{}, 1)} }

func (q *taskQueue) signal() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

func (q *taskQueue) push(t task) {
	q.mu.Lock()
	heap.Push(&q.h, t)
	q.mu.Unlock()
	q.signal()
}

// close ends popDue once the queue is empty.
func (q *taskQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.signal()
}

// popDue blocks until the earliest task is due and returns it; ok is
// false once the queue is closed and empty.
func (q *taskQueue) popDue() (t task, ok bool) {
	for {
		q.mu.Lock()
		if len(q.h) == 0 {
			closed := q.closed
			q.mu.Unlock()
			if closed {
				return task{}, false
			}
			<-q.wake
			continue
		}
		wait := time.Until(q.h[0].at)
		if wait <= 0 {
			t = heap.Pop(&q.h).(task)
			q.mu.Unlock()
			return t, true
		}
		q.mu.Unlock()
		timer := time.NewTimer(wait)
		select {
		case <-timer.C:
		case <-q.wake:
			timer.Stop()
		}
	}
}

type taskHeap []task

func (h taskHeap) Len() int           { return len(h) }
func (h taskHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h taskHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)        { *h = append(*h, x.(task)) }
func (h *taskHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	*h = old[:len(old)-1]
	return t
}
