package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"matchsim"
	"matchsim/api"
	"matchsim/internal/httpapi"
	"matchsim/internal/jobs"
)

func instanceJSON(t *testing.T, seed uint64, n int) []byte {
	t.Helper()
	p, err := matchsim.GeneratePaper(seed, n)
	if err != nil {
		t.Fatalf("GeneratePaper: %v", err)
	}
	var buf bytes.Buffer
	if err := p.WriteInstance(&buf); err != nil {
		t.Fatalf("WriteInstance: %v", err)
	}
	return buf.Bytes()
}

// testWorker is one worker daemon: a jobs.Manager behind the real HTTP
// surface, so the coordinator exercises the wire protocol end to end.
type testWorker struct {
	m  *jobs.Manager
	ts *httptest.Server
}

func startWorkers(t *testing.T, n int) []*testWorker {
	t.Helper()
	ws := make([]*testWorker, n)
	for i := range ws {
		m := jobs.New(jobs.Options{Workers: 2})
		ts := httptest.NewServer(httpapi.New(m))
		ws[i] = &testWorker{m: m, ts: ts}
		t.Cleanup(func() {
			ts.Close()
			m.Shutdown(context.Background())
		})
	}
	return ws
}

func workerBases(ws []*testWorker) []string {
	urls := make([]string, len(ws))
	for i, w := range ws {
		urls[i] = w.ts.URL
	}
	return urls
}

func newTestCoordinator(t *testing.T, ws []*testWorker, opts Options) *Coordinator {
	t.Helper()
	opts.Workers = workerBases(ws)
	if opts.PollInterval == 0 {
		opts.PollInterval = 5 * time.Millisecond
	}
	if opts.HealthEvery == 0 {
		opts.HealthEvery = 20 * time.Millisecond
	}
	if opts.CallTimeout == 0 {
		opts.CallTimeout = 5 * time.Second
	}
	co, err := New(opts)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(func() { co.Shutdown(context.Background()) })
	return co
}

// waitDone polls the coordinator until the job is terminal.
func waitDone(t *testing.T, co *Coordinator, id string) api.JobInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		info, err := co.Info(id)
		if err != nil {
			t.Fatalf("Info(%s): %v", id, err)
		}
		if api.TerminalState(info.State) {
			return info
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return api.JobInfo{}
}

// metricValue scrapes one un-labelled series from a Prometheus text
// exposition.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, name+" ")), 64)
			if err != nil {
				t.Fatalf("parse %s: %v", name, err)
			}
			return v
		}
	}
	return 0
}

func coordinatorMetrics(t *testing.T, co *Coordinator) string {
	t.Helper()
	var buf bytes.Buffer
	if err := co.Registry().WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return buf.String()
}

// TestCoordinatorDeterminism: a coordinator-routed solve is bit-identical
// to the same submission on a standalone daemon, for both the plain CE
// path and the island ensemble — the routing tier observes, never
// perturbs. Also pins routing to the ring and the Worker status field.
func TestCoordinatorDeterminism(t *testing.T) {
	ws := startWorkers(t, 2)
	co := newTestCoordinator(t, ws, Options{CheckpointEvery: 1})
	standalone := jobs.New(jobs.Options{Workers: 2})
	t.Cleanup(func() { standalone.Shutdown(context.Background()) })

	inst := instanceJSON(t, 7, 12)
	arms := []struct {
		name string
		opts api.SolverOptions
	}{
		{"plain", api.SolverOptions{Seed: 42, Workers: 2}},
		{"islands", api.SolverOptions{Seed: 42, Workers: 2, Islands: 3, MigrateEvery: 4}},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			req := api.SubmitRequest{Instance: inst, Solver: api.SolverMaTCH, Options: arm.opts}
			info, err := co.Submit(req)
			if err != nil {
				t.Fatalf("coordinator Submit: %v", err)
			}
			final := waitDone(t, co, info.ID)
			if final.State != api.StateDone {
				t.Fatalf("coordinator job ended %q (error %q)", final.State, final.Error)
			}
			if final.Resumed {
				t.Fatal("undisturbed coordinator job reported Resumed")
			}
			want := NewRing(workerBases(ws), 0).Lookup(info.Key)
			if final.Worker != want {
				t.Fatalf("job ran on %q, ring owns key at %q", final.Worker, want)
			}
			res, err := co.Result(info.ID)
			if err != nil {
				t.Fatalf("coordinator Result: %v", err)
			}

			sinfo, err := standalone.Submit(req)
			if err != nil {
				t.Fatalf("standalone Submit: %v", err)
			}
			var sres api.JobResult
			for {
				i, err := standalone.Info(sinfo.ID)
				if err != nil {
					t.Fatalf("standalone Info: %v", err)
				}
				if api.TerminalState(i.State) {
					if i.State != api.StateDone {
						t.Fatalf("standalone job ended %q (error %q)", i.State, i.Error)
					}
					sres, err = standalone.Result(sinfo.ID)
					if err != nil {
						t.Fatalf("standalone Result: %v", err)
					}
					break
				}
				time.Sleep(2 * time.Millisecond)
			}
			if !reflect.DeepEqual(res.Mapping, sres.Mapping) || res.Exec != sres.Exec {
				t.Fatalf("coordinator result diverged: exec %v vs %v, mapping %v vs %v",
					res.Exec, sres.Exec, res.Mapping, sres.Mapping)
			}
		})
	}
}

// TestCoordinatorLongPollCompletion: the coordinator hears of a routed
// solve's completion when it happens, not on its next status poll. With
// a 10 s PollInterval, a small job must be done at the coordinator
// within a second of submission.
func TestCoordinatorLongPollCompletion(t *testing.T) {
	ws := startWorkers(t, 1)
	co := newTestCoordinator(t, ws, Options{PollInterval: 10 * time.Second})
	info, err := co.Submit(api.SubmitRequest{
		Instance: instanceJSON(t, 4, 10), Solver: api.SolverMaTCH,
		Options: api.SolverOptions{Seed: 7, Workers: 1},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	deadline := time.Now().Add(time.Second)
	for info.State != api.StateDone {
		if api.TerminalState(info.State) {
			t.Fatalf("job ended %q (error %q), want done", info.State, info.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %q 1s after submission; the coordinator is waiting out PollInterval", info.State)
		}
		time.Sleep(2 * time.Millisecond)
		if info, err = co.Info(info.ID); err != nil {
			t.Fatalf("Info: %v", err)
		}
	}
}

// TestCoordinatorSingleflight: N identical concurrent submissions
// collapse onto one worker solve — asserted on the workers' own solver
// counters, not just coordinator bookkeeping — and every submitter gets
// the same bits.
func TestCoordinatorSingleflight(t *testing.T) {
	ws := startWorkers(t, 2)
	co := newTestCoordinator(t, ws, Options{CheckpointEvery: 1})

	// Slow the solve down so every duplicate lands while it is in flight.
	req := api.SubmitRequest{
		Instance: instanceJSON(t, 11, 24),
		Solver:   api.SolverMaTCH,
		Options: api.SolverOptions{
			Seed: 3, Workers: 2, SampleSize: 300,
			MaxIterations: 120, GammaStallWindow: 1000, StallC: 1000,
		},
	}
	const N = 8
	ids := make([]string, N)
	for i := 0; i < N; i++ {
		info, err := co.Submit(req)
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		ids[i] = info.ID
	}
	var first api.JobResult
	for i, id := range ids {
		final := waitDone(t, co, id)
		if final.State != api.StateDone {
			t.Fatalf("job %d ended %q (error %q)", i, final.State, final.Error)
		}
		res, err := co.Result(id)
		if err != nil {
			t.Fatalf("Result %d: %v", i, err)
		}
		if i == 0 {
			first = res
			continue
		}
		if !reflect.DeepEqual(res.Mapping, first.Mapping) || res.Exec != first.Exec {
			t.Fatalf("submitter %d saw a different result", i)
		}
	}

	var solves uint64
	for _, w := range ws {
		solves += w.m.Stats().SolvesTotal
	}
	if solves != 1 {
		t.Fatalf("workers performed %d solves for %d identical submissions, want exactly 1", solves, N)
	}
	var iterWorkers int
	for _, w := range ws {
		var buf bytes.Buffer
		if err := w.m.Registry().WritePrometheus(&buf); err != nil {
			t.Fatalf("worker WritePrometheus: %v", err)
		}
		if metricValue(t, buf.String(), "matchd_solver_iterations_total") > 0 {
			iterWorkers++
		}
	}
	if iterWorkers != 1 {
		t.Fatalf("matchd_solver_iterations_total advanced on %d workers, want 1", iterWorkers)
	}
	text := coordinatorMetrics(t, co)
	if got := metricValue(t, text, "matchd_cluster_singleflight_hits_total"); got != N-1 {
		t.Fatalf("singleflight hits metric = %v, want %d", got, N-1)
	}
}

// TestCoordinatorCache: a repeat submission after completion is answered
// from the coordinator cache without touching a worker again.
func TestCoordinatorCache(t *testing.T) {
	ws := startWorkers(t, 2)
	co := newTestCoordinator(t, ws, Options{CheckpointEvery: 1})

	req := api.SubmitRequest{
		Instance: instanceJSON(t, 5, 10),
		Solver:   api.SolverMaTCH,
		Options:  api.SolverOptions{Seed: 9, Workers: 2},
	}
	info, err := co.Submit(req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final := waitDone(t, co, info.ID)
	if final.State != api.StateDone {
		t.Fatalf("job ended %q", final.State)
	}
	res1, _ := co.Result(info.ID)

	info2, err := co.Submit(req)
	if err != nil {
		t.Fatalf("repeat Submit: %v", err)
	}
	if info2.State != api.StateDone || !info2.CacheHit {
		t.Fatalf("repeat submission state=%q cacheHit=%v, want an immediate cache hit", info2.State, info2.CacheHit)
	}
	res2, err := co.Result(info2.ID)
	if err != nil {
		t.Fatalf("cached Result: %v", err)
	}
	if !res2.CacheHit {
		t.Fatal("cached result not marked CacheHit")
	}
	if !reflect.DeepEqual(res1.Mapping, res2.Mapping) || res1.Exec != res2.Exec {
		t.Fatal("cached result diverged from the solved one")
	}
	var solves uint64
	for _, w := range ws {
		solves += w.m.Stats().SolvesTotal
	}
	if solves != 1 {
		t.Fatalf("cache hit still reached a worker (%d solves)", solves)
	}
	text := coordinatorMetrics(t, co)
	if got := metricValue(t, text, "matchd_cluster_cache_hits_total"); got != 1 {
		t.Fatalf("coordinator cache hits metric = %v, want 1", got)
	}
}

// TestCoordinatorRejectsBadSubmissions: validation failures are local
// synchronous errors, never a spun-up flight.
func TestCoordinatorRejectsBadSubmissions(t *testing.T) {
	ws := startWorkers(t, 1)
	co := newTestCoordinator(t, ws, Options{})

	cases := []api.SubmitRequest{
		{Solver: api.SolverMaTCH},                                  // no instance
		{Instance: instanceJSON(t, 1, 8), Solver: "bogus"},         // unknown solver
		{Instance: json.RawMessage(`{}`), Solver: api.SolverMaTCH}, // invalid instance
		{Instance: instanceJSON(t, 1, 8), Solver: api.SolverGA, // checkpoint on a non-CE solver
			Checkpoint: json.RawMessage(`{"x":1}`)},
	}
	for i, req := range cases {
		if _, err := co.Submit(req); err == nil {
			t.Fatalf("case %d: bad submission accepted", i)
		}
	}
	if st := co.Status(); st.Flights != 0 {
		t.Fatalf("%d flights left behind by rejected submissions", st.Flights)
	}
}

// TestCoordinatorIgnoresDeprecatedUnprunedScoring: the retired
// unpruned_scoring option is no longer a field, so a submission that
// still sends it as raw JSON shares the first one's content address and
// is answered from the cache — exactly one solve runs across the workers.
func TestCoordinatorIgnoresDeprecatedUnprunedScoring(t *testing.T) {
	ws := startWorkers(t, 2)
	co := newTestCoordinator(t, ws, Options{})

	req := api.SubmitRequest{
		Instance: instanceJSON(t, 6, 10),
		Solver:   api.SolverMaTCH,
		Options:  api.SolverOptions{Seed: 4, Workers: 2},
	}
	first, err := co.Submit(req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if final := waitDone(t, co, first.ID); final.State != api.StateDone {
		t.Fatalf("job ended %q", final.State)
	}
	res, err := co.Result(first.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}

	var legacy api.SubmitRequest
	body := `{"instance":` + string(req.Instance) + `,"solver":"` + req.Solver +
		`","options":{"seed":4,"workers":2,"unpruned_scoring":true}}`
	if err := json.Unmarshal([]byte(body), &legacy); err != nil {
		t.Fatalf("decode request with unpruned_scoring: %v", err)
	}
	second, err := co.Submit(legacy)
	if err != nil {
		t.Fatalf("Submit with unpruned_scoring: %v", err)
	}
	if second.Key != first.Key {
		t.Fatalf("unpruned_scoring changed the content key: %q vs %q", second.Key, first.Key)
	}
	if second.State != api.StateDone || !second.CacheHit {
		t.Fatalf("second submission state=%q cacheHit=%v, want an immediate cache hit", second.State, second.CacheHit)
	}

	var solves, iterations float64
	for _, w := range ws {
		var buf bytes.Buffer
		if err := w.m.Registry().WritePrometheus(&buf); err != nil {
			t.Fatalf("WritePrometheus: %v", err)
		}
		solves += metricValue(t, buf.String(), "matchd_solves_total")
		iterations += metricValue(t, buf.String(), "matchd_solver_iterations_total")
	}
	if solves != 1 {
		t.Fatalf("workers ran %v solves, want 1", solves)
	}
	if iterations != float64(res.Iterations) {
		t.Fatalf("workers ran %v CE iterations, want the one solve's %d", iterations, res.Iterations)
	}
}
