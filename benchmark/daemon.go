package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"matchsim/client"
)

// daemon is one matchd process under test, started from the shipped
// binary with shipped flags and reached only over HTTP.
type daemon struct {
	name   string
	url    string
	cmd    *exec.Cmd
	admin  *client.Client // readiness, /metrics, traces: not load traffic
	exited chan struct{}
}

var (
	liveMu  sync.Mutex
	live    []*daemon
	adminHC = &http.Client{Timeout: 10 * time.Second}
)

// startDaemon launches matchd with -listen on a free loopback port plus
// args and returns once it has announced its address.
func startDaemon(bin, dir, name string, args ...string) (*daemon, error) {
	if bin == "" {
		return nil, fmt.Errorf("no matchd binary given (-matchd); run through benchmark/run.sh")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-listen", "127.0.0.1:0", "-node", name}, args...)...)
	cmd.Dir = dir
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{name: name, cmd: cmd, exited: make(chan struct{})}
	liveMu.Lock()
	live = append(live, d)
	liveMu.Unlock()

	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		announced := false
		for sc.Scan() {
			if u, ok := strings.CutPrefix(sc.Text(), "matchd listening on "); ok && !announced {
				announced = true
				addr <- u
			}
		}
		_, _ = io.Copy(io.Discard, out)
		_ = cmd.Wait()
		close(d.exited)
	}()
	select {
	case u := <-addr:
		d.url = u
		d.admin = client.New(u).WithHTTPClient(adminHC)
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("matchd %s exited before announcing its address", name)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("matchd %s did not announce its address", name)
	}
}

// waitReady polls /readyz until the daemon reports ready.
func (d *daemon) waitReady(timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	for {
		st, err := d.admin.Ready(ctx)
		if err == nil && st.Status == "ready" {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("matchd %s not ready after %v (last error: %v)", d.name, timeout, err)
		case <-d.exited:
			return fmt.Errorf("matchd %s exited while starting", d.name)
		case <-time.After(time.Millisecond):
		}
	}
}

// rssMB is the daemon's peak resident set size so far.
func (d *daemon) rssMB() (float64, error) {
	return procHWM(d.cmd.Process.Pid)
}

// stop asks for a graceful drain, then kills after a grace period, and
// waits for the process to end.
func (d *daemon) stop() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// stopAllDaemons stops every daemon this process started.
func stopAllDaemons() {
	liveMu.Lock()
	ds := live
	live = nil
	liveMu.Unlock()
	var wg sync.WaitGroup
	for _, d := range ds {
		wg.Add(1)
		go func() { defer wg.Done(); d.stop() }()
	}
	wg.Wait()
}

// scrape reads the daemon's /metrics exposition into sample values keyed
// by series name without labels, summed over label sets.
func (d *daemon) scrape() (map[string]float64, error) {
	text, err := d.admin.Metrics(context.Background())
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil || math.IsNaN(v) {
			continue
		}
		out[name] += v
	}
	return out, nil
}

// loadClient builds the load generator's HTTP client: at most conns
// connections, with a dial counter so the run can report how many it
// opened.
func loadClient(conns int, dials *atomic.Int64) *http.Client {
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return dialer.DialContext(ctx, network, addr)
		},
	}}
}
