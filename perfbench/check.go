package main

import (
	"fmt"
	"sort"
	"time"

	"snooze/internal/cluster"
	"snooze/internal/protocol"
	"snooze/internal/types"
	"snooze/internal/workload"
)

// counterNames are the program's metrics.Registry counters the benchmark
// reads; their deltas over the timed phase are part of the simulated
// statistics, so the determinism checks cover them too.
var counterNames = []string{
	"gl.submissions", "gm.place-ok", "gm.place-failed", "gm.rollups",
	"gm.monitor-rejects", "gm.lc-failures", "gm.relocations",
	"gm.suspends", "gm.wakes", "gm.migrations-ok",
	"gm.consolidation-rounds", "gm.consolidation-skips-unchanged",
	"gm.consolidation-migrations", "gm.consolidation-cancels",
}

// simStats are the simulated (virtual-time) results of one round. They are
// a pure function of the seed: the same seed gives equal simStats in every
// round, in every run and with tracing on or off.
type simStats struct {
	SubmitVirt []time.Duration // virtual time per submission call
	Submitted  int
	Placed     int
	EnergyJ    float64 // fleet energy over the timed phase
	SLASampled int     // running-VM instants sampled
	SLAUnmet   int     // ... on a node whose summed demand exceeded its CPU
	Virtual    time.Duration
	Events     uint64 // kernel events, timed phase
	Delivered  uint64
	Dropped    uint64
	Appends    uint64
	Reductions uint64
	Series     int
	Journal    uint64
	MemoHits   uint64
	MemoMisses uint64
	Migrations uint64 // completed on the hypervisors
	ProbeCount int64  // gl.probe-depth observations
	ProbeSum   float64
	Spans      int // decision spans retained by the program's tracer
	Counters   map[string]int64
}

// base holds the counter values at the start of the timed phase.
type base struct {
	now        time.Duration
	energyJ    float64
	events     uint64
	delivered  uint64
	dropped    uint64
	appends    uint64
	reductions uint64
	journal    uint64
	memoHits   uint64
	memoMisses uint64
	migrations uint64
	probeCount int64
	probeSum   float64
	counters   map[string]int64
}

func memo(c *cluster.Cluster) (hits, misses uint64) {
	for _, m := range c.Managers {
		h, mi := m.ViewMemoCounters()
		hits += h
		misses += mi
	}
	return hits, misses
}

func hvMigrations(c *cluster.Cluster) uint64 {
	var n uint64
	for _, node := range c.Nodes {
		_, _, m := node.Counters()
		n += m
	}
	return n
}

func snapshot(c *cluster.Cluster) base {
	b := base{now: c.Kernel.Now(), energyJ: c.TotalEnergyJoules(), events: c.Kernel.Processed()}
	b.delivered, b.dropped = c.Bus.Stats()
	st := c.Telemetry.Store()
	b.appends, b.reductions = st.TotalSamples(), st.TotalReductions()
	b.journal = c.Telemetry.Journal().LastSeq()
	b.memoHits, b.memoMisses = memo(c)
	b.migrations = hvMigrations(c)
	if h, ok := c.Metrics.Histogram("gl.probe-depth"); ok {
		b.probeCount, b.probeSum = h.Count, h.Sum
	}
	b.counters = map[string]int64{}
	for _, n := range counterNames {
		b.counters[n] = c.Metrics.Count(n)
	}
	return b
}

// fill records the timed phase's deltas against b.
func (s *simStats) fill(c *cluster.Cluster, b base, led *ledger) {
	s.Submitted, s.Placed = led.submitted, len(led.placed)
	s.EnergyJ = c.TotalEnergyJoules() - b.energyJ
	s.Virtual = c.Kernel.Now() - b.now
	s.Events = c.Kernel.Processed() - b.events
	d, dr := c.Bus.Stats()
	s.Delivered, s.Dropped = d-b.delivered, dr-b.dropped
	st := c.Telemetry.Store()
	s.Appends, s.Reductions = st.TotalSamples()-b.appends, st.TotalReductions()-b.reductions
	s.Series = st.NumSeries()
	s.Journal = c.Telemetry.Journal().LastSeq() - b.journal
	h, m := memo(c)
	s.MemoHits, s.MemoMisses = h-b.memoHits, m-b.memoMisses
	s.Migrations = hvMigrations(c) - b.migrations
	if hs, ok := c.Metrics.Histogram("gl.probe-depth"); ok {
		s.ProbeCount, s.ProbeSum = hs.Count-b.probeCount, hs.Sum-b.probeSum
	}
	s.Spans = c.Tracer.Len()
	s.Counters = map[string]int64{}
	for _, n := range counterNames {
		s.Counters[n] = c.Metrics.Count(n) - b.counters[n]
	}
}

// key renders the stats for equality checks; %v prints maps in key order.
// Energy is compared to nine significant digits: a node meters its
// utilization as a sum over its VM map, whose iteration order varies, so
// the program's own energy total differs between replays in the last bits.
func (s simStats) key() string {
	e := s.EnergyJ
	s.EnergyJ = 0
	return fmt.Sprintf("%+v EnergyJ≈%.9g", s, e)
}

// sampleSLA counts the running VMs and those on a node whose summed trace
// demand exceeds the node's CPU. Sums run in VM-ID order so the float
// result does not depend on map iteration.
func (s *simStats) sampleSLA(c *cluster.Cluster, reg *workload.Registry) {
	now := c.Kernel.Now()
	for _, node := range c.Nodes {
		var running []types.VMStatus
		for _, vm := range node.VMs() {
			if vm.State == types.VMRunning || vm.State == types.VMMigrating {
				running = append(running, vm)
			}
		}
		sort.Slice(running, func(i, j int) bool { return running[i].Spec.ID < running[j].Spec.ID })
		demand := 0.0
		for _, vm := range running {
			frac := 1.0
			if reg != nil {
				frac = reg.Lookup(vm.Spec.TraceID).At(now).CPU
			}
			demand += frac * vm.Spec.Requested.CPU
		}
		s.SLASampled += len(running)
		if demand > node.Spec().Capacity.CPU+1e-9 {
			s.SLAUnmet += len(running)
		}
	}
}

// ledger checks submission replies as they arrive and remembers where the
// program said each VM went.
type ledger struct {
	submitted int
	placed    map[types.VMID]types.NodeID
	lost      int
	problems  []string
}

func newLedger() *ledger { return &ledger{placed: map[types.VMID]types.NodeID{}} }

// record checks placed + unplaced = submitted for one reply.
func (l *ledger) record(batch []types.VMSpec, resp protocol.SubmitResponse) {
	l.submitted += len(batch)
	seen := map[types.VMID]int{}
	for id, node := range resp.Placed {
		seen[id]++
		l.placed[id] = node
	}
	for _, id := range resp.Unplaced {
		seen[id]++
	}
	ok := len(seen) == len(batch)
	for _, vm := range batch {
		if seen[vm.ID] != 1 {
			ok = false
		}
	}
	if !ok {
		l.problems = append(l.problems, fmt.Sprintf("reply to a %d-VM submission lists %d placed + %d unplaced VMs", len(batch), len(resp.Placed), len(resp.Unplaced)))
	}
}

// checkFleet verifies the fleet at the end of the timed phase: every placed
// VM is on exactly one node (a live migration's source copy counts, its
// booting destination shadow does not), and no node's reservations exceed
// its capacity.
func checkFleet(c *cluster.Cluster, l *ledger) []string {
	var problems []string
	owners := map[types.VMID]int{}
	booting := map[types.VMID]int{}
	for _, node := range c.Nodes {
		if res, capa := node.Reserved(), node.Spec().Capacity; !res.FitsIn(capa) {
			problems = append(problems, fmt.Sprintf("node %s reserves %v over capacity %v", node.ID(), res, capa))
		}
		for _, vm := range node.VMs() {
			switch vm.State {
			case types.VMRunning, types.VMMigrating:
				owners[vm.Spec.ID]++
			case types.VMBooting:
				booting[vm.Spec.ID]++
			}
		}
	}
	ids := make([]string, 0, len(l.placed))
	for id := range l.placed {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	for _, s := range ids {
		id := types.VMID(s)
		switch o := owners[id]; {
		case o == 1:
		case o == 0 && booting[id] == 1:
		case o == 0 && booting[id] == 0:
			l.lost++
			problems = append(problems, fmt.Sprintf("VM %s was placed but runs nowhere", id))
		default:
			problems = append(problems, fmt.Sprintf("VM %s runs on %d nodes", id, o+booting[id]))
		}
	}
	return problems
}
