package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	apiv1 "snooze/api/v1"
	"snooze/api/v1/client"
	"snooze/internal/protocol"
	"snooze/internal/rest"
	"snooze/internal/simkernel"
	"snooze/internal/transport"
)

// deploy-rest: real snoozed processes on loopback, one control process
// (three managers) and deployNodes node processes. The benchmark process is
// the load generator: an open loop of single-VM /v1 submissions at each rung
// of a ladder of fixed rates, over at most runtime.NumCPU() connections.
// It is the only workload through internal/rest, the JSON codec, the api/v1
// server and live backend, and wall-clock timers. It is not in
// BENCHMARK.json (see NOTES.md); it prints its own metric set.
const (
	deployNodes = 4
	// latencyLimit is the p95 a ladder rung must meet to count as sustained.
	latencyLimit = 25 * time.Millisecond
	// readyTimeout bounds the wait for the first successful placement.
	readyTimeout = 60 * time.Second
)

// deployRates is the rate ladder in submissions per second; refRate is the
// rung below the knee whose latencies are the headline figures.
var deployRates = []float64{50, 100, 200, 400, 800, 1600}

const refRate = 50

// deployVM is deliberately tiny so the ladder never runs out of capacity
// (the whole ladder fits in one node): refusals should come from the
// control plane, not from a full fleet.
var deployVM = apiv1.Resources{CPU: 0.001, MemoryMB: 1, NetRxMbps: 0.01, NetTxMbps: 0.01}

type proc struct {
	name string
	cmd  *exec.Cmd
	done chan struct{}
}

// fleet owns the spawned processes; stop tears every one down.
type fleet struct {
	dir   string
	ctrl  string // control base URL
	procs []*proc
	once  sync.Once
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

type peer struct {
	Addr   string   `json:"addr"`
	URL    string   `json:"url"`
	Groups []string `json:"groups"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// startFleet writes the peers files and spawns the control and node
// processes on free loopback ports. On error, whatever started is stopped.
func startFleet(bin, dir string) (*fleet, error) {
	f := &fleet{dir: dir}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ports := make([]int, deployNodes+1)
	for i := range ports {
		p, err := freePort()
		if err != nil {
			return nil, fmt.Errorf("free port: %w", err)
		}
		ports[i] = p
	}
	f.ctrl = fmt.Sprintf("http://127.0.0.1:%d", ports[0])
	var ctrlPeers, nodePeers []peer
	for i := 0; i < deployNodes; i++ {
		u := fmt.Sprintf("http://127.0.0.1:%d", ports[i+1])
		id := fmt.Sprintf("n%d", i+1)
		ctrlPeers = append(ctrlPeers,
			peer{Addr: "lc:" + id, URL: u, Groups: []string{protocol.GroupGL}},
			peer{Addr: "oob:lc:" + id, URL: u, Groups: []string{}})
	}
	for i := 0; i < 3; i++ {
		gm := fmt.Sprintf("gm-%02d", i)
		nodePeers = append(nodePeers, peer{Addr: "mgr:" + gm, URL: f.ctrl, Groups: []string{"snooze.gm." + gm}})
	}
	if err := writeJSON(filepath.Join(dir, "peers-control.json"), ctrlPeers); err != nil {
		return nil, err
	}
	if err := writeJSON(filepath.Join(dir, "peers-node.json"), nodePeers); err != nil {
		return nil, err
	}
	if err := f.spawn(bin, "control", "-role", "control", "-listen", fmt.Sprintf("127.0.0.1:%d", ports[0]),
		"-managers", "3", "-peers", filepath.Join(dir, "peers-control.json")); err != nil {
		return nil, err
	}
	for i := 0; i < deployNodes; i++ {
		id := fmt.Sprintf("n%d", i+1)
		if err := f.spawn(bin, "node-"+id, "-role", "node", "-listen", fmt.Sprintf("127.0.0.1:%d", ports[i+1]),
			"-node", id, "-peers", filepath.Join(dir, "peers-node.json")); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

func (f *fleet) spawn(bin, name string, args ...string) error {
	logf, err := os.Create(filepath.Join(f.dir, name+".log"))
	if err != nil {
		return err
	}
	cmd := exec.Command(bin, args...)
	// The children stay in the benchmark's process group, so a signal to
	// the group reaches them even if the benchmark itself is killed.
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a process we stop is not news
		logf.Close()
		close(p.done)
	}()
	f.procs = append(f.procs, p)
	return nil
}

// stop sends SIGTERM to every process, waits up to five seconds for each
// to exit, then SIGKILLs the rest and waits for them too.
func (f *fleet) stop() {
	f.once.Do(func() {
		for _, p := range f.procs {
			_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
		}
		deadline := time.Now().Add(5 * time.Second)
		for _, p := range f.procs {
			select {
			case <-p.done:
			case <-time.After(time.Until(deadline)):
				_ = p.cmd.Process.Kill()
				<-p.done
			}
		}
	})
}

func (f *fleet) alive() error {
	for _, p := range f.procs {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited early (see %s)", p.name, filepath.Join(f.dir, p.name+".log"))
		default:
		}
	}
	return nil
}

// rssMB reads the resident set size of the control process.
func (f *fleet) rssMB() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", f.procs[0].cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmRSS:") {
			fs := strings.Fields(line)
			if len(fs) >= 2 {
				kb, _ := strconv.ParseFloat(fs[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// outcome is one submission of the load generator.
type outcome struct {
	id      string
	rate    float64
	latency time.Duration // from the due time to the reply
	late    time.Duration // how late the generator sent it
	placed  bool
	err     error
}

// rung runs one open-loop rate for d: submissions are due on a seeded
// Poisson schedule and each is timed from its due time, so a stall is
// charged to every request it delays.
func rung(ctx context.Context, c *client.Client, rng *rand.Rand, rate float64, d time.Duration, next *int, workers int) []outcome {
	type job struct {
		id  string
		due time.Time
	}
	jobs := make(chan job)
	results := make(chan outcome, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				o := outcome{id: j.id, rate: rate, late: time.Since(j.due)}
				res, err := c.SubmitVMs(ctx, []apiv1.VMSpec{{ID: j.id, Requested: deployVM}})
				o.latency = time.Since(j.due)
				o.err = err
				_, o.placed = res.Placed[j.id]
				results <- o
			}
		}()
	}
	var out []outcome
	collected := make(chan struct{})
	go func() {
		for o := range results {
			out = append(out, o)
		}
		close(collected)
	}()
	start := time.Now()
	due := start
	for due.Sub(start) < d && ctx.Err() == nil {
		due = due.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		*next++
		select {
		case jobs <- job{id: fmt.Sprintf("bench-%06d", *next), due: due}:
		case <-ctx.Done():
		}
	}
	close(jobs)
	wg.Wait()
	close(results)
	<-collected
	return out
}

// restRoundTrips times n read-only KindGLQuery calls from the benchmark's
// own rest.Gateway to the control process's entry point over /deliver.
func restRoundTrips(ctrl string, n int) ([]float64, error) {
	bus := transport.NewBus(simkernel.NewWallRuntime(), transport.Config{})
	gw := rest.NewGateway(bus, 5*time.Second)
	gw.AddPeer("ep:0", ctrl)
	var us []float64
	for i := 0; i < n; i++ {
		done := make(chan error, 1)
		t0 := time.Now()
		bus.Call("bench:0", "ep:0", protocol.KindGLQuery, struct{}{}, 5*time.Second, func(_ any, err error) { done <- err })
		if err := <-done; err != nil {
			return nil, fmt.Errorf("rest round trip: %w", err)
		}
		us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
	}
	return us, nil
}

// scrapeCounter reads one counter from the control process's /metrics.
func scrapeCounter(ctx context.Context, ctrl, name string) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ctrl+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	want := "snooze_" + strings.NewReplacer(".", "_", "-", "_").Replace(name) + "_total"
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fs := strings.Fields(sc.Text())
		if len(fs) == 2 && fs[0] == want {
			return strconv.ParseFloat(fs[1], 64)
		}
	}
	return 0, sc.Err() // absent: never incremented
}

// runDeploy runs the deploy-rest workload and prints its report and result
// line. The processes are torn down on every return path and on SIGINT or
// SIGTERM to the benchmark.
func runDeploy(seed int64, budget time.Duration, trace bool, out string, stdout, stderr io.Writer) int {
	bin, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	bin = filepath.Join(filepath.Dir(bin), "snoozed")
	if _, err := os.Stat(bin); err != nil {
		fmt.Fprintf(stderr, "perfbench: deploy-rest needs the snoozed binary next to the benchmark (run.sh builds it): %v\n", err)
		return 1
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	dir, err := filepath.Abs(filepath.Join(out, fmt.Sprintf("deploy-%d", os.Getpid())))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	t0 := time.Now()
	f, err := startFleet(bin, dir)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer f.stop()
	c := client.New(f.ctrl, client.WithTimeout(30*time.Second))

	// Readiness is the first successful placement; its wait is set-up.
	for i := 0; ; i++ {
		if err := f.alive(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		if time.Since(t0) > readyTimeout || ctx.Err() != nil {
			fmt.Fprintf(stderr, "perfbench: no placement within %v\n", readyTimeout)
			return 1
		}
		id := fmt.Sprintf("ready-%03d", i)
		rctx, rcancel := context.WithTimeout(ctx, 2*time.Second)
		res, err := c.SubmitVMs(rctx, []apiv1.VMSpec{{ID: id, Requested: deployVM}})
		rcancel()
		if _, ok := res.Placed[id]; err == nil && ok {
			break
		}
		time.Sleep(200 * time.Millisecond)
	}
	setup := time.Since(t0)

	rt, err := restRoundTrips(f.ctrl, 200)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	rng := rand.New(rand.NewSource(seed))
	workers := runtime.NumCPU()
	per := budget / time.Duration(len(deployRates))
	var all []outcome
	next := 0
	for _, r := range deployRates {
		all = append(all, rung(ctx, c, rng, r, per, &next, workers)...)
	}
	if ctx.Err() != nil {
		fmt.Fprintln(stderr, "perfbench: interrupted")
		return 1
	}
	rss := f.rssMB()

	// VMs the API reported placed must show up, and not as failed, once the
	// next monitor reports have carried them to the GMs.
	time.Sleep(4 * time.Second)
	listed, err := c.ListVMs(ctx)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: list VMs: %v\n", err)
		return 1
	}
	state := map[string]string{}
	for _, vm := range listed {
		state[vm.ID] = vm.State
	}
	lcFailures, err := scrapeCounter(ctx, f.ctrl, "gm.lc-failures")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: scrape /metrics: %v\n", err)
		return 1
	}

	failed, placed, apiErrs, vanished := 0, 0, 0, 0
	byRate := map[float64][]float64{}
	lateMax := time.Duration(0)
	for _, o := range all {
		lat := float64(o.latency) / float64(time.Millisecond)
		switch {
		case o.err != nil:
			apiErrs++
			failed++
			lat = math.Inf(1)
		case !o.placed:
			failed++
			lat = math.Inf(1)
		default:
			placed++
			if st, ok := state[o.id]; !ok || st == "failed" {
				vanished++
				failed++
			}
		}
		byRate[o.rate] = append(byRate[o.rate], lat)
		lateMax = max(lateMax, o.late)
	}
	f.stop()

	ms := []metric{}
	maxOK := 0.0
	var ref []float64
	for _, r := range deployRates {
		xs := byRate[r]
		q := tailQuantile(len(xs))
		p95 := quantile(append([]float64(nil), xs...), q)
		if p95 <= float64(latencyLimit)/float64(time.Millisecond) {
			maxOK = r
		}
		if r == refRate {
			ref = xs
		}
		ms = append(ms, metric{fmt.Sprintf("loadgen.r%g.p95_ms", r), p95, "ms", fmt.Sprintf("p%.1f of n=%d, from due time", 100*q, len(xs))})
	}
	qr := tailQuantile(len(rt))
	layer := append(ms,
		metric{"rest.roundtrip_us_p50", quantile(rt, 0.5), "us", fmt.Sprintf("n=%d gateway calls to ep:0 over /deliver", len(rt))},
		metric{"rest.roundtrip_us_p95", quantile(rt, qr), "us", fmt.Sprintf("p%.1f of n=%d", 100*qr, len(rt))},
		metric{"api.submit_calls", float64(len(all)), "count", "single-VM /v1 submissions after readiness"},
		metric{"api.errors", float64(apiErrs), "count", "submissions that returned an error"},
		metric{"api.vanished", float64(vanished), "count", "placed VMs later listed failed or missing"},
		metric{"loadgen.late_max_ms", float64(lateMax) / float64(time.Millisecond), "ms", "latest the generator sent a due request"},
		metric{"hierarchy.gm.lc_failures", lcFailures, "count", "gm.lc-failures from /metrics on healthy nodes"},
	)
	qref := tailQuantile(len(ref))
	e2e := []metric{
		{"setup_s", setup.Seconds(), "s", fmt.Sprintf("spawn of 1 control + %d node processes to the first placement", deployNodes)},
		{"submit_wall_p50_ms", quantile(append([]float64(nil), ref...), 0.5), "ms", fmt.Sprintf("at %g/s, n=%d, from due time", float64(refRate), len(ref))},
		{"submit_wall_p95_ms", quantile(append([]float64(nil), ref...), qref), "ms", fmt.Sprintf("at %g/s, p%.1f of n=%d", float64(refRate), 100*qref, len(ref))},
		{"placed_frac", ratio(float64(placed-vanished), float64(len(all))), "share", fmt.Sprintf("base: %d submissions", len(all))},
		{"max_rate_ok", maxOK, "1/s", fmt.Sprintf("highest rung of %v/s with p95 <= %v", deployRates, latencyLimit)},
		{"control_rss_mb", rss, "MB", "control process resident set after the ladder"},
	}
	shown := e2e
	if trace {
		shown = layer
	}
	for i, m := range shown {
		if math.IsInf(m.value, 1) {
			shown[i].value = -1 // a rung where more than the tail failed has no p95
		}
	}
	if err := report(stdout, true, len(all), failed, shown); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}
