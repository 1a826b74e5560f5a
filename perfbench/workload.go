package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"snooze/internal/cluster"
	"snooze/internal/consolidation/online"
	"snooze/internal/protocol"
	"snooze/internal/scheduling"
	"snooze/internal/types"
	"snooze/internal/workload"
)

// settleSetup is the virtual time a fresh fleet runs before the timed phase:
// election, LC joins and the first GM summaries (cluster.Settle's usual 30s).
const settleSetup = 30 * time.Second

// maxSubmitSim bounds one submission in virtual time (cluster.SubmitAndWait).
const maxSubmitSim = time.Hour

// spec is one workload. Every workload has the same two-part timed phase,
// so every end-to-end metric is defined on each: provisioning (VMs submitted
// through the client in closed-loop batches, as an orchestrator would) and
// then running the fleet for a fixed virtual time in fixed chunks. The sizes
// decide which layers dominate; NOTES.md gives the reasons.
type spec struct {
	name     string
	lcs, gms int
	// classes is the VM class mix (nil: workload.DefaultVMClasses).
	classes []workload.VMClass
	// fill provisions VMs until their requested CPU reaches this share of
	// the fleet's CPU; count is used instead when fill is 0.
	fill  float64
	count int
	// batch is the number of VMs per submission call.
	batch int
	// run is the virtual time simulated after provisioning, in chunks of
	// chunk; the SLA is sampled at the end of every chunk.
	run, chunk time.Duration
	// trace gives VM i its utilization trace (nil: VMs run flat at their
	// reservation).
	trace func(i, n int, offset time.Duration) workload.Trace
	// configure adjusts the cluster configuration beyond the defaults. It
	// runs once per round, so a stateful policy it installs starts fresh.
	configure func(cfg *cluster.Config)
	// replays is the number of times an untraced round sets up a second
	// fleet and provisions it again, evenly spaced between its run chunks.
	// A workload whose provisioning lasts milliseconds needs them: one burst
	// per round reads whatever the host was doing in those milliseconds.
	replays int
}

// specs are the benchmark's workloads, by name.
var specs = map[string]spec{
	// sim-place: an orchestrator filling a settled fleet to two thirds of its
	// CPU in small batches. GL dispatch, GM placement, capacity-view builds
	// and store reductions do the work; the short run afterwards is cheap.
	"sim-place": {
		name: "sim-place", lcs: 2048, gms: 64,
		fill: 2.0 / 3, batch: 16,
		run: time.Minute, chunk: 10 * time.Second,
	},
	// sim-steady: a fleet populated with phase-shifted diurnal VMs runs for
	// five virtual minutes. The kernel, the bus, LC monitoring and store
	// appends do the work; scheduling policies barely run once provisioned.
	"sim-steady": {
		name: "sim-steady", lcs: 1024, gms: 32,
		count: 2048, batch: 8,
		run: 5 * time.Minute, chunk: 10 * time.Second,
		trace: func(i, n int, offset time.Duration) workload.Trace {
			const period = 30 * time.Minute
			return workload.DiurnalTrace{
				Low: 0.1, High: 0.7, MemFraction: 0.5,
				Period: period, Phase: offset + time.Duration(i)*period/time.Duration(n),
			}
		},
		// No node crosses these thresholds (a node peaks near 0.7), so no
		// anomaly wakes the relocation policies: the run is pure monitoring.
		configure: func(cfg *cluster.Config) {
			cfg.LC.Thresholds = scheduling.Thresholds{Overload: 0.95, Underload: 0}
		},
	},
	// sim-energy: the paper's energy loop. Diurnal VMs are spread round-robin
	// over a small fleet, then a virtual four-hour day runs with idle suspend
	// and the online ACO consolidation optimizer on. The solver and the
	// migrations it orders dominate; a solver that packs worse shows in
	// energy_kwh and sla_met_frac.
	"sim-energy": {
		name: "sim-energy", lcs: 36, gms: 2,
		classes: []workload.VMClass{{Name: "std", Capacity: types.RV(2, 4096, 50, 50), Weight: 1}},
		count:   90, batch: 1,
		run: 4 * time.Hour, chunk: time.Minute,
		replays: 48,
		trace: func(i, n int, offset time.Duration) workload.Trace {
			const day = 4 * time.Hour
			return workload.DiurnalTrace{
				Low: 0.05, High: 0.75, MemFraction: 0.5,
				Period: day, Phase: offset + time.Duration(i)*day/time.Duration(4*n),
			}
		},
		configure: func(cfg *cluster.Config) {
			// Round-robin spreads the VMs, so consolidation has work to do.
			cfg.Manager.Placement = &scheduling.RoundRobinPlacement{}
			cfg.LC.Thresholds = scheduling.Thresholds{Overload: 0.95, Underload: 0}
			cfg.Manager.EnergyEnabled = true
			cfg.Manager.IdleThreshold = 2 * time.Minute
			cfg.Manager.Consolidation = online.Config{Enabled: true}
		},
	},
}

// workloadNames lists the workloads in report order.
var workloadNames = []string{"sim-place", "sim-steady", "sim-energy"}

// inputs generates the round's VMs and trace registry from the seed. The
// seed picks the class mix draw, the bus jitter and a global phase offset
// of the diurnal traces; the program sees only the generated inputs.
func (s spec) inputs(seed int64) ([]types.VMSpec, *workload.Registry) {
	rng := rand.New(rand.NewSource(seed))
	offset := time.Duration(rng.Int63n(int64(15 * time.Minute)))
	gen := workload.NewGenerator(seed, s.classes)
	var vms []types.VMSpec
	if s.fill > 0 {
		limit := s.fill * float64(s.lcs) * workload.Grid5000Topology(1, 1).Nodes[0].Capacity.CPU
		cpu := 0.0
		for cpu < limit {
			vm := gen.Next()
			cpu += vm.Requested.CPU
			vms = append(vms, vm)
		}
	} else {
		vms = gen.Batch(s.count)
	}
	if s.trace == nil {
		return vms, nil
	}
	reg := workload.NewRegistry()
	for i := range vms {
		id := fmt.Sprintf("t%d", i)
		reg.Register(id, s.trace(i, len(vms), offset))
		vms[i].TraceID = id
	}
	return vms, reg
}

// config builds the round's cluster configuration. cluster.DefaultConfig
// hands out fresh policy instances, so stateful round-robin cursors start
// from zero in every round and the round replays exactly. A traced round
// wraps whatever policies the configuration ends up with.
func (s spec) config(seed int64, reg *workload.Registry, tr *tracer) cluster.Config {
	cfg := cluster.DefaultConfig(workload.Grid5000Topology(s.lcs, s.gms), seed)
	cfg.Hypervisor.Traces = reg
	if s.configure != nil {
		s.configure(&cfg)
	}
	if tr != nil {
		m := &cfg.Manager
		m.Dispatch, m.Placement = tr.wrapDispatch(m.Dispatch), tr.wrapPlacement(m.Placement)
		m.Overload, m.Underload = tr.wrapRelocation(m.Overload), tr.wrapRelocation(m.Underload)
		m.Estimator = tr.wrapEstimator(m.Estimator)
	}
	return cfg
}

// driver advances a cluster. The plain driver calls the program's own entry
// points (Cluster.SubmitAndWait, Cluster.Settle); the traced driver repeats
// their loops step by step so it can time every Kernel.Step.
type driver interface {
	submit(c *cluster.Cluster, vms []types.VMSpec) (protocol.SubmitResponse, error)
	advance(c *cluster.Cluster, d time.Duration)
}

type plainDriver struct{}

func (plainDriver) submit(c *cluster.Cluster, vms []types.VMSpec) (protocol.SubmitResponse, error) {
	return c.SubmitAndWait(vms, maxSubmitSim)
}

func (plainDriver) advance(c *cluster.Cluster, d time.Duration) { c.Settle(d) }

// round is what one set-up plus timed phase measured, with the replays
// interleaved in it.
type round struct {
	setups     []time.Duration // the round's own set-up first, then each replay's
	timed      time.Duration   // host time of the whole timed phase, replays excluded
	submitWall []time.Duration // host time per submission call, replays included
	submitRate []float64       // VMs placed per host second, per call, replays included
	runHost    time.Duration   // host time advancing the run, SLA sampling excluded
	replayHost time.Duration   // host time of the replays, their GC included
	heapBytes  uint64          // live heap after a forced GC, fleet still alive
	sim        simStats
	problems   []string // failed output checks
	replayed   int      // VMs submitted by the replays
	unplaced   int
	lost       int
}

// runRound builds a fresh fleet, provisions it and runs it. tr is nil for
// an untraced round; only an untraced round replays its provisioning.
func runRound(s spec, seed int64, tr *tracer) (round, error) {
	var r round
	vms, reg := s.inputs(seed)
	c, cfg, err := r.setUp(s, seed, reg, tr)
	if err != nil {
		return r, err
	}

	var d driver = plainDriver{}
	if tr != nil {
		tr.begin(c, cfg.Manager.Consolidation.Enabled)
		d = tr
	}
	base := snapshot(c)
	led := newLedger()
	runtime.GC() // start the timed phase with a fresh GC cycle, not set-up's
	t1 := time.Now()
	if r.sim.SubmitVirt, err = r.provision(s, c, d, vms, led); err != nil {
		return r, err
	}
	chunks := int(s.run / s.chunk)
	replays, every := 0, 0
	if tr == nil && s.replays > 0 {
		replays = min(s.replays, chunks)
		every = chunks / replays
	}
	for i := 0; i < chunks; i++ {
		w0 := time.Now()
		d.advance(c, s.chunk)
		r.runHost += time.Since(w0)
		r.sim.sampleSLA(c, reg)
		if replays > 0 && i%every == every/2 && i/every < replays {
			w0 := time.Now()
			err := r.replay(s, seed)
			runtime.GC() // the replay's fleet is garbage; do not bill it to the run
			r.replayHost += time.Since(w0)
			if err != nil {
				return r, err
			}
		}
	}
	r.timed = time.Since(t1) - r.replayHost
	if tr != nil {
		tr.end()
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapBytes = ms.HeapAlloc

	r.sim.fill(c, base, led)
	if tr != nil {
		r.sim.Events -= tr.sentinels
	}
	r.problems = append(r.problems, led.problems...)
	r.problems = append(r.problems, checkFleet(c, led)...)
	if e := r.sim.EnergyJ; math.IsNaN(e) || math.IsInf(e, 0) || e <= 0 {
		r.problems = append(r.problems, fmt.Sprintf("energy %v J is not finite and positive", e))
	}
	r.unplaced += r.sim.Submitted - r.sim.Placed
	r.lost += led.lost
	return r, nil
}

// setUp builds a fleet and settles it, timing both into r.setups.
func (r *round) setUp(s spec, seed int64, reg *workload.Registry, tr *tracer) (*cluster.Cluster, cluster.Config, error) {
	runtime.GC() // the previous fleet is garbage; do not bill it here
	t0 := time.Now()
	cfg := s.config(seed, reg, tr)
	c := cluster.New(cfg)
	c.Settle(settleSetup)
	r.setups = append(r.setups, time.Since(t0))
	if c.Leader() == nil {
		return nil, cfg, fmt.Errorf("%s: no group leader after %v of set-up", s.name, settleSetup)
	}
	return c, cfg, nil
}

// provision submits vms through d in closed-loop calls of s.batch VMs,
// recording each reply in led and each call's host time in r. It returns
// the simulated time of each call.
func (r *round) provision(s spec, c *cluster.Cluster, d driver, vms []types.VMSpec, led *ledger) ([]time.Duration, error) {
	var virt []time.Duration
	for i := 0; i < len(vms); i += s.batch {
		batch := vms[i:min(i+s.batch, len(vms))]
		v0, w0 := c.Kernel.Now(), time.Now()
		resp, err := d.submit(c, batch)
		w := time.Since(w0)
		if err != nil {
			return virt, fmt.Errorf("%s: submission %d: %w", s.name, i/s.batch, err)
		}
		r.submitWall = append(r.submitWall, w)
		r.submitRate = append(r.submitRate, float64(len(resp.Placed))/w.Seconds())
		virt = append(virt, c.Kernel.Now()-v0)
		led.record(batch, resp)
	}
	return virt, nil
}

// replay sets up a second fleet from the same inputs, provisions it as the
// round did and drops it, so one round yields many provisioning samples
// spread over its run. Its set-up and submit calls join the round's
// samples and its replies pass the same checks; its simulated submit
// latencies must equal the round's.
func (r *round) replay(s spec, seed int64) error {
	vms, reg := s.inputs(seed)
	c, _, err := r.setUp(s, seed, reg, nil)
	if err != nil {
		return err
	}
	led := newLedger()
	virt, err := r.provision(s, c, plainDriver{}, vms, led)
	if err != nil {
		return err
	}
	r.problems = append(r.problems, led.problems...)
	r.problems = append(r.problems, checkFleet(c, led)...)
	if fmt.Sprint(virt) != fmt.Sprint(r.sim.SubmitVirt) {
		r.problems = append(r.problems, fmt.Sprintf("a provisioning replay's simulated submit times differ from the round's:\n  %v\n  %v", r.sim.SubmitVirt, virt))
	}
	r.replayed += led.submitted
	r.unplaced += led.submitted - len(led.placed)
	r.lost += led.lost
	return nil
}
