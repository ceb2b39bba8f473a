package client_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"matchsim"
	"matchsim/api"
	"matchsim/client"
	"matchsim/internal/cluster"
	"matchsim/internal/httpapi"
	"matchsim/internal/jobs"
)

// TestWaitReturnsOnCompletion checks that Wait follows a job with
// long-polls rather than ticks: with a 10 s interval, a small solve must
// come back as soon as it is done, on a worker daemon and through a
// coordinator alike.
func TestWaitReturnsOnCompletion(t *testing.T) {
	p, err := matchsim.GeneratePaper(3, 10)
	if err != nil {
		t.Fatalf("GeneratePaper: %v", err)
	}
	var inst bytes.Buffer
	if err := p.WriteInstance(&inst); err != nil {
		t.Fatalf("WriteInstance: %v", err)
	}

	m := jobs.New(jobs.Options{Workers: 1})
	worker := httptest.NewServer(httpapi.New(m))
	t.Cleanup(func() {
		worker.Close()
		m.Shutdown(context.Background())
	})
	co, err := cluster.New(cluster.Options{Workers: []string{worker.URL}})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(func() { co.Shutdown(context.Background()) })
	front := httptest.NewServer(httpapi.New(co))
	t.Cleanup(front.Close)

	for i, base := range []string{worker.URL, front.URL} {
		c := client.New(base)
		ctx := context.Background()
		info, err := c.Submit(ctx, api.SubmitRequest{
			Instance: inst.Bytes(), Solver: api.SolverMaTCH,
			Options: api.SolverOptions{Seed: uint64(i + 1), Workers: 1},
		})
		if err != nil {
			t.Fatalf("%s: Submit: %v", base, err)
		}
		start := time.Now()
		final, err := c.Wait(ctx, info.ID, 10*time.Second)
		took := time.Since(start)
		if err != nil || final.State != api.StateDone {
			t.Fatalf("%s: Wait = %+v, %v; want done", base, final, err)
		}
		if took > time.Second {
			t.Errorf("%s: Wait took %v with a 10s interval; want it back on completion", base, took)
		}
	}
}
