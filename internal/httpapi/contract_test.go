package httpapi

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"matchsim/api"
	"matchsim/client"
	"matchsim/internal/cluster"
	"matchsim/internal/jobs"
	"matchsim/internal/telemetry"
)

// contractBackend is one Backend behind the HTTP surface, traced, with
// the handles the contract cases need.
type contractBackend struct {
	worker  bool // a jobs.Manager; false means a cluster.Coordinator
	backend interface {
		Backend
		Shutdown(context.Context) error
	}
	tracer *telemetry.Tracer
	base   string
	c      *client.Client
}

// newContractBackend starts a fresh traced backend of the given kind:
// a jobs.Manager, or a cluster.Coordinator over one jobs.Manager worker
// served through this package like a worker daemon.
func newContractBackend(t *testing.T, worker bool) *contractBackend {
	t.Helper()
	f := &contractBackend{
		worker: worker,
		tracer: telemetry.NewTracer(telemetry.TracerOptions{Node: "contract"}),
	}
	if worker {
		m := jobs.New(jobs.Options{Workers: 1, Tracer: f.tracer})
		t.Cleanup(func() { m.Shutdown(context.Background()) })
		f.backend = m
	} else {
		m := jobs.New(jobs.Options{Workers: 1})
		wts := httptest.NewServer(New(m))
		t.Cleanup(func() {
			wts.Close()
			m.Shutdown(context.Background())
		})
		co, err := cluster.New(cluster.Options{
			Workers:      []string{wts.URL},
			PollInterval: 5 * time.Millisecond,
			HealthEvery:  20 * time.Millisecond,
			CallTimeout:  5 * time.Second,
			Tracer:       f.tracer,
		})
		if err != nil {
			t.Fatalf("cluster.New: %v", err)
		}
		t.Cleanup(func() { co.Shutdown(context.Background()) })
		f.backend = co
	}
	ts := httptest.NewServer(New(f.backend))
	t.Cleanup(ts.Close)
	f.base, f.c = ts.URL, client.New(ts.URL)
	return f
}

// call sends one raw request (headers as key, value pairs) and returns
// the status, response headers and body.
func call(t *testing.T, method, url, body string, hdr ...string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s %s: %v", method, url, err)
	}
	return resp.StatusCode, resp.Header, b
}

// submitBody renders a small MaTCH submission as a POST /v1/jobs body.
func submitBody(t *testing.T, req api.SubmitRequest) string {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	return string(b)
}

func smallJob(t *testing.T, seed uint64) api.SubmitRequest {
	return api.SubmitRequest{
		Instance: instanceJSON(t, seed, 10), Solver: api.SolverMaTCH,
		Options: api.SolverOptions{Seed: seed, Workers: 1},
	}
}

// longJob is a submission that runs until cancelled.
func longJob(t *testing.T, seed uint64) api.SubmitRequest {
	return api.SubmitRequest{
		Instance: instanceJSON(t, 8, 28), Solver: api.SolverMaTCH,
		Options: api.SolverOptions{Seed: seed, Workers: 1, MaxIterations: 100000, StallC: 100000, GammaStallWindow: 100000},
	}
}

// waitResult is the outcome of a long-poll run off the test goroutine.
type waitResult struct {
	info api.JobInfo
	err  error
	took time.Duration
}

// goWaitInfo starts a status long-poll on its own goroutine.
func goWaitInfo(f *contractBackend, id, state string, wait time.Duration) <-chan waitResult {
	ch := make(chan waitResult, 1)
	go func() {
		start := time.Now()
		info, err := f.c.WaitInfo(context.Background(), id, state, wait)
		ch <- waitResult{info, err, time.Since(start)}
	}()
	return ch
}

// waitJobDone polls a job to a terminal state and requires it done.
func waitJobDone(t *testing.T, f *contractBackend, id string) {
	t.Helper()
	final, err := f.c.Wait(context.Background(), id, 2*time.Millisecond)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != api.StateDone {
		t.Fatalf("job %s ended %q (error %q), want done", id, final.State, final.Error)
	}
}

// untracedRoutes never open a server span, even when the request
// carries a traceparent: tracing the trace endpoint would feed back into
// its own ring, and probes and scrapes would flood it.
var untracedRoutes = []string{
	"GET /v1/traces", "GET /v1/traces/{id}", "GET /healthz", "GET /readyz", "GET /metrics",
}

// TestBackendContract runs the HTTP protocol against both backends: a
// worker daemon's jobs.Manager and a coordinator's cluster.Coordinator.
// Every case gets a fresh backend.
func TestBackendContract(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, f *contractBackend)
	}{
		{"submit_202", func(t *testing.T, f *contractBackend) {
			code, _, body := call(t, "POST", f.base+"/v1/jobs", submitBody(t, smallJob(t, 1)))
			var info api.JobInfo
			if err := json.Unmarshal(body, &info); err != nil || code != http.StatusAccepted || info.ID == "" {
				t.Fatalf("submit: %d %s (decode err %v), want 202 JobInfo", code, body, err)
			}
			waitJobDone(t, f, info.ID)
		}},
		{"resubmit_cache_hit_200", func(t *testing.T, f *contractBackend) {
			body := submitBody(t, smallJob(t, 2))
			_, _, first := call(t, "POST", f.base+"/v1/jobs", body)
			var info api.JobInfo
			if err := json.Unmarshal(first, &info); err != nil {
				t.Fatalf("submit: %s: %v", first, err)
			}
			waitJobDone(t, f, info.ID)
			code, _, again := call(t, "POST", f.base+"/v1/jobs", body)
			var hit api.JobInfo
			if err := json.Unmarshal(again, &hit); err != nil || code != http.StatusOK || !hit.CacheHit || hit.State != api.StateDone {
				t.Fatalf("resubmit: %d %s, want 200 done with cache_hit", code, again)
			}
		}},
		{"batch_per_item_status", func(t *testing.T, f *contractBackend) {
			good := smallJob(t, 3)
			badSolver := good
			badSolver.Solver = "no-such-solver"
			badInstance := good
			badInstance.Instance = json.RawMessage(`{"not":"an instance"}`)
			resp, err := f.c.SubmitBatch(context.Background(), api.BatchSubmitRequest{
				Jobs: []api.SubmitRequest{good, badSolver, badInstance},
			})
			if err != nil {
				t.Fatalf("SubmitBatch: %v", err)
			}
			if len(resp.Items) != 3 {
				t.Fatalf("batch returned %d items, want 3", len(resp.Items))
			}
			if resp.Items[0].Status != http.StatusAccepted || resp.Items[0].Info == nil {
				t.Fatalf("good item: status %d info %v", resp.Items[0].Status, resp.Items[0].Info)
			}
			for i := 1; i <= 2; i++ {
				it := resp.Items[i]
				if it.Status != http.StatusBadRequest || it.Error == "" || it.Info != nil {
					t.Fatalf("bad item %d: status %d error %q info %v", i, it.Status, it.Error, it.Info)
				}
			}
			waitJobDone(t, f, resp.Items[0].Info.ID)
		}},
		{"unknown_id_404", func(t *testing.T, f *contractBackend) {
			for _, r := range []struct{ method, path string }{
				{"GET", "/v1/jobs/jmissing"},
				{"GET", "/v1/jobs/jmissing/result"},
				{"DELETE", "/v1/jobs/jmissing"},
			} {
				code, hdr, body := call(t, r.method, f.base+r.path, "")
				if code != http.StatusNotFound || !strings.HasPrefix(hdr.Get("Content-Type"), "application/json") {
					t.Errorf("%s %s: %d %s, want 404 api.Error", r.method, r.path, code, body)
				}
			}
		}},
		{"unfinished_result_409", func(t *testing.T, f *contractBackend) {
			ctx := context.Background()
			info, err := f.c.Submit(ctx, longJob(t, 1))
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			if code, _, body := call(t, "GET", f.base+"/v1/jobs/"+info.ID+"/result", ""); code != http.StatusConflict {
				t.Errorf("unfinished result: %d %s, want 409", code, body)
			}
			if _, err := f.c.Cancel(ctx, info.ID); err != nil {
				t.Fatalf("Cancel: %v", err)
			}
		}},
		{"long_poll", func(t *testing.T, f *contractBackend) {
			ctx := context.Background()
			info, err := f.c.Submit(ctx, longJob(t, 1))
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			// A state change answers the wait.
			got, err := f.c.WaitInfo(ctx, info.ID, api.StateQueued, 10*time.Second)
			if err != nil || got.State != api.StateRunning {
				t.Fatalf("wait on queued: %+v, %v; want running", got, err)
			}
			// A wait with nothing new runs out and answers the same state.
			start := time.Now()
			got, err = f.c.WaitInfo(ctx, info.ID, api.StateRunning, 50*time.Millisecond)
			if took := time.Since(start); err != nil || got.State != api.StateRunning || took < 50*time.Millisecond {
				t.Fatalf("expiring wait: %+v, %v after %v; want running after >= 50ms", got, err, took)
			}
			parked := goWaitInfo(f, info.ID, api.StateRunning, 10*time.Second)
			time.Sleep(20 * time.Millisecond)
			if _, err := f.c.Cancel(ctx, info.ID); err != nil {
				t.Fatalf("Cancel: %v", err)
			}
			if r := <-parked; r.err != nil || r.info.State != api.StateCancelled || r.took > 5*time.Second {
				t.Fatalf("wait across cancel: %+v, %v after %v; want cancelled at once", r.info, r.err, r.took)
			}
			// A terminal job answers at once, even when asked to wait in
			// its own state.
			start = time.Now()
			got, err = f.c.WaitInfo(ctx, info.ID, api.StateCancelled, 10*time.Second)
			if took := time.Since(start); err != nil || got.State != api.StateCancelled || took > time.Second {
				t.Fatalf("wait on terminal job: %+v, %v after %v; want cancelled at once", got, err, took)
			}
			for _, q := range []string{
				"state=running&wait=soon", // not a duration
				"state=running&wait=-1s",  // negative
				"state=paused&wait=1s",    // unknown state
				"wait=1s",                 // no state to wait on
			} {
				code, hdr, body := call(t, "GET", f.base+"/v1/jobs/"+info.ID+"?"+q, "")
				var e api.Error
				if err := json.Unmarshal(body, &e); err != nil || code != http.StatusBadRequest ||
					e.Message == "" || !strings.HasPrefix(hdr.Get("Content-Type"), "application/json") {
					t.Errorf("?%s: %d %s, want 400 api.Error", q, code, body)
				}
			}
			start = time.Now()
			code, _, body := call(t, "GET", f.base+"/v1/jobs/jmissing?state=queued&wait=10s", "")
			if took := time.Since(start); code != http.StatusNotFound || took > time.Second {
				t.Errorf("unknown id: %d %s after %v, want an immediate 404", code, body, took)
			}
			// Long-polls keep out of the plain status route's series. The
			// middleware records a request just after answering it, so
			// the scrape retries briefly.
			if _, err := f.c.Info(ctx, info.ID); err != nil {
				t.Fatalf("Info: %v", err)
			}
			want := []string{
				`matchd_http_request_seconds_count{route="GET /v1/jobs/{id}"} 1` + "\n",
				`matchd_http_request_seconds_count{route="GET /v1/jobs/{id}?wait"} 9` + "\n",
			}
			for deadline := time.Now().Add(time.Second); ; time.Sleep(5 * time.Millisecond) {
				_, _, body = call(t, "GET", f.base+"/metrics", "")
				if strings.Contains(string(body), want[0]) && strings.Contains(string(body), want[1]) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("metrics lack %q:\n%s", want, body)
				}
			}
		}},
		{"shutdown_wakes_long_poll", func(t *testing.T, f *contractBackend) {
			// One job runs and one queues behind it on the single solver.
			ctx := context.Background()
			run, err := f.c.Submit(ctx, longJob(t, 1))
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			if got, err := f.c.WaitInfo(ctx, run.ID, api.StateQueued, 10*time.Second); err != nil || got.State != api.StateRunning {
				t.Fatalf("wait on queued: %+v, %v; want running", got, err)
			}
			queued, err := f.c.Submit(ctx, longJob(t, 2))
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			waits := []<-chan waitResult{
				goWaitInfo(f, run.ID, api.StateRunning, 10*time.Second),
				goWaitInfo(f, queued.ID, api.StateQueued, 10*time.Second),
			}
			time.Sleep(50 * time.Millisecond)
			start := time.Now()
			go f.backend.Shutdown(context.Background())
			for i, ch := range waits {
				r := <-ch
				if took := time.Since(start); r.err != nil || took > 2*time.Second {
					t.Errorf("wait %d: %+v, %v, back %v after Shutdown began; want it woken promptly", i, r.info, r.err, took)
				}
			}
		}},
		{"malformed_body_400", func(t *testing.T, f *contractBackend) {
			for _, path := range []string{"/v1/jobs", "/v1/jobs:batch"} {
				if code, _, body := call(t, "POST", f.base+path, "{not json"); code != http.StatusBadRequest {
					t.Errorf("POST %s malformed: %d %s, want 400", path, code, body)
				}
			}
		}},
		{"submit_after_shutdown_503", func(t *testing.T, f *contractBackend) {
			if err := f.backend.Shutdown(context.Background()); err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			code, hdr, body := call(t, "POST", f.base+"/v1/jobs", submitBody(t, smallJob(t, 4)))
			if code != http.StatusServiceUnavailable || hdr.Get("Retry-After") != "1" {
				t.Fatalf("submit after shutdown: %d Retry-After %q %s, want 503 with Retry-After: 1",
					code, hdr.Get("Retry-After"), body)
			}
		}},
		{"probes_and_metrics", func(t *testing.T, f *contractBackend) {
			code, _, body := call(t, "GET", f.base+"/healthz", "")
			if code != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
				t.Errorf("healthz: %d %s", code, body)
			}
			code, _, body = call(t, "GET", f.base+"/readyz", "")
			var ready api.ReadyStatus
			if err := json.Unmarshal(body, &ready); err != nil || code != http.StatusOK || ready.Status != "ready" || len(ready.Checks) == 0 {
				t.Errorf("readyz: %d %s", code, body)
			}
			code, hdr, body := call(t, "GET", f.base+"/metrics", "")
			text := string(body)
			if code != http.StatusOK || !strings.HasPrefix(hdr.Get("Content-Type"), "text/plain") ||
				!strings.Contains(text, `matchd_http_requests_total{route="GET /healthz",method="GET",code="200"} 1`) {
				t.Errorf("metrics: %d %s\n%s", code, hdr.Get("Content-Type"), text)
			}
			// The SSE lifetime histogram exists only where the SSE route does.
			if got := strings.Contains(text, "# TYPE matchd_http_stream_seconds "); got != f.worker {
				t.Errorf("matchd_http_stream_seconds exposed = %v, want %v", got, f.worker)
			}
			code, hdr, body = call(t, "GET", f.base+"/metrics", "", "Accept", "application/openmetrics-text")
			if code != http.StatusOK || !strings.HasPrefix(hdr.Get("Content-Type"), "application/openmetrics-text") ||
				!strings.HasSuffix(string(body), "# EOF\n") {
				t.Errorf("OpenMetrics scrape: %d %s", code, hdr.Get("Content-Type"))
			}
		}},
		{"trace_tree", func(t *testing.T, f *contractBackend) {
			const traceID = "0123456789abcdef0123456789abcdef"
			ctx := context.Background()
			info, err := f.c.Submit(client.ContextWithTraceparent(ctx, "00-"+traceID+"-0123456789abcdef-01"), smallJob(t, 5))
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			if info.TraceID != traceID {
				t.Fatalf("JobInfo.TraceID = %q, want caller's %q", info.TraceID, traceID)
			}
			waitJobDone(t, f, info.ID)
			doc, err := f.c.Trace(ctx, traceID)
			if err != nil {
				t.Fatalf("Trace: %v", err)
			}
			req := findSpan(doc.Spans, "POST /v1/jobs")
			if doc.TraceID != traceID || req == nil || len(req.Children) == 0 {
				t.Fatalf("trace %q: want a POST /v1/jobs span with the job span under it: %+v", traceID, doc)
			}
		}},
		{"untraced_routes", func(t *testing.T, f *contractBackend) {
			const traceID = "fedcba9876543210fedcba9876543210"
			tp := "00-" + traceID + "-0123456789abcdef-01"
			for _, path := range []string{"/v1/traces", "/v1/traces/" + traceID, "/healthz", "/readyz", "/metrics"} {
				call(t, "GET", f.base+path, "", "traceparent", tp)
			}
			for _, sum := range f.tracer.Traces(1 << 20) {
				for _, sd := range f.tracer.Trace(sum.TraceID) {
					for _, route := range untracedRoutes {
						if sd.Name == route {
							t.Errorf("tracer retained a %q span (trace %s)", route, sd.TraceID)
						}
					}
				}
			}
		}},
		{"mounted_routes", func(t *testing.T, f *contractBackend) {
			// A route the backend does not mount falls through to the
			// mux's plain-text 404; a mounted one answers for itself.
			for _, r := range []struct {
				method, path, body string
				onWorker           bool
			}{
				{"GET", "/v1/jobs/jmissing/events", "", true},
				{"GET", "/v1/jobs/jmissing/checkpoint", "", true},
				{"GET", "/v1/islands/nosuch", "", true},
				{"POST", "/v1/islands/nosuch/packets", "{not json", true},
				{"GET", "/v1/cluster", "", false},
				{"POST", "/v1/cluster/drain", "{not json", false},
			} {
				code, hdr, body := call(t, r.method, f.base+r.path, r.body)
				mounted := code != http.StatusNotFound || !strings.HasPrefix(hdr.Get("Content-Type"), "text/plain")
				if want := r.onWorker == f.worker; mounted != want {
					t.Errorf("%s %s: %d %s; mounted = %v, want %v", r.method, r.path, code, body, mounted, want)
				}
			}
			if f.worker {
				return
			}
			st, err := f.c.ClusterStatus(context.Background())
			if err != nil {
				t.Fatalf("ClusterStatus: %v", err)
			}
			if len(st.Workers) != 1 || !st.Workers[0].Up {
				t.Fatalf("cluster status workers = %+v, want the one worker up", st.Workers)
			}
		}},
	}
	for _, kind := range []struct {
		name   string
		worker bool
	}{{"worker", true}, {"coordinator", false}} {
		t.Run(kind.name, func(t *testing.T) {
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					tc.run(t, newContractBackend(t, kind.worker))
				})
			}
		})
	}
}
