package cluster

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"snooze/internal/hierarchy"
	"snooze/internal/scheduling/view"
	"snooze/internal/telemetry"
	"snooze/internal/types"
	"snooze/internal/workload"
)

// TestGMCrashRecoversTelemetryState is the state-recovery acceptance test:
// with per-GM private hubs (the live-deployment topology where a GM crash
// really loses its telemetry), a GM killed mid-workload must be survivable
// without a cold capacity view — the GL pushes the victim's replicated
// snapshot + journal tail to the survivors, and the successor that adopts
// the orphaned LCs prices them from restored, still-Fresh statistics
// instead of falling back to bare snapshots for the next five monitoring
// periods.
func TestGMCrashRecoversTelemetryState(t *testing.T) {
	top := workload.Grid5000Topology(12, 3)
	cfg := DefaultConfig(top, 77)
	cfg.PerGMHubs = true
	cfg.Manager.StateSyncPeriod = 2 * time.Second
	c := New(cfg)
	c.Settle(30 * time.Second)

	var vms []types.VMSpec
	for i := 0; i < 12; i++ {
		vms = append(vms, vmSpec(fmt.Sprintf("r%d", i), 1, 2048))
	}
	resp, err := c.SubmitAndWait(vms, 2*time.Minute)
	if err != nil || len(resp.Placed) != 12 {
		t.Fatalf("submit: %+v %v", resp, err)
	}
	// Accumulate enough monitoring history for Fresh statistics (monitor
	// period 3s, MinSamples 5) and several state-sync pushes to the GL.
	c.Settle(20 * time.Second)

	gms := c.GroupManagers()
	sort.Slice(gms, func(i, j int) bool { return gms[i].ID() < gms[j].ID() })
	if len(gms) < 2 {
		t.Fatalf("need >=2 GMs, have %d", len(gms))
	}
	victim := gms[0]
	var orphans []types.NodeID
	for id, lc := range c.LCs {
		if lc.GM() == victim.Addr() {
			orphans = append(orphans, id)
		}
	}
	sort.Slice(orphans, func(i, j int) bool { return orphans[i] < orphans[j] })
	if len(orphans) == 0 {
		t.Fatal("victim GM manages no LCs")
	}
	if c.Metrics.Count("gm.state-syncs") == 0 {
		t.Fatal("no state syncs reached the GL before the crash")
	}

	crashAt := c.Kernel.Now()
	victim.Crash()
	// GL sweep declares the GM dead after GMTimeout (12s); LCs detect the
	// dead GM and rejoin on a similar clock. Keep the window short enough
	// that fewer than MinSamples post-adoption reports exist, so only the
	// restored history can make the successor's view Fresh.
	c.Settle(16 * time.Second)

	if got := c.Metrics.Count("gl.state-restores"); got == 0 {
		t.Fatal("GL pushed no archives after the GM failure")
	}
	if got := c.Metrics.Count("gm.recoveries"); got == 0 {
		t.Fatal("no survivor adopted the restored state")
	}
	if _, ok := c.Metrics.Histogram("gm.recovery-latency.seconds"); !ok {
		t.Fatal("recovery latency not observed")
	}

	// The orphaned LCs must have rejoined a live GM, and that GM's private
	// hub must hold the victim's pre-crash samples — provable only via the
	// snapshot+journal handoff, since per-GM hubs share nothing.
	survivors := map[string]*hierarchy.Manager{}
	for _, m := range c.GroupManagers() {
		if m != victim {
			survivors[string(m.Addr())] = m
		}
	}
	recovered := false
	for _, id := range orphans {
		lc := c.LCs[id]
		adopter, ok := survivors[string(lc.GM())]
		if !ok {
			t.Fatalf("orphan %s not re-assigned to a survivor (gm=%s)", id, lc.GM())
		}
		entity := telemetry.NodeEntity(id)
		preCrash := 0
		adopter.Telemetry().Store().Window(entity, "util", 0, crashAt, func(seg []telemetry.Sample) {
			preCrash += len(seg)
		})
		if preCrash == 0 {
			continue
		}
		b := view.Builder{Hub: adopter.Telemetry()}
		st := b.Stats(c.Kernel.Now(), entity)
		if !st.Fresh {
			t.Fatalf("orphan %s: restored stats not fresh: %+v", id, st)
		}
		recovered = true
	}
	if !recovered {
		t.Fatal("no orphan's pre-crash history survived the handoff")
	}

	// The successor journaled the recovery with its measured latency.
	found := false
	for _, m := range survivors {
		for _, ev := range m.Telemetry().Journal().Replay(0, 0) {
			if ev.Type == telemetry.EventGMRecovered {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no %s event journaled by any survivor", telemetry.EventGMRecovered)
	}

	// Failover must not lose workload.
	c.Settle(30 * time.Second)
	if got := c.RunningVMs(); got != 12 {
		t.Fatalf("running VMs after GM failover: %d", got)
	}
}
