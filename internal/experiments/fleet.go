package experiments

import (
	"fmt"
	"time"

	"snooze/internal/cluster"
	"snooze/internal/metrics"
	"snooze/internal/workload"
)

// This file holds the fleet-scale scheduling-throughput harness: sustained
// submission waves through the full GL→GM→LC hierarchy on the simulated
// clock, reported as placements per wall-clock second plus per-decision
// latency percentiles. It is the experiment behind the
// BenchmarkPlacementsPerSecond CI gate and the README "Fleet scale" table;
// ScaleFull drives the paper's hierarchy shape at 10k nodes.

// F1FleetThroughput measures scheduling throughput under the dispatch
// variants: sequential per-VM probing (the paper-faithful E1 path) against
// batched dispatch (one multi-VM placement request per candidate GM), each
// with the GM rollup series on and off. Expected shape: batched dispatch
// multiplies placements/s at large scale because the GL builds the group
// views once per wave instead of once per VM, and one RPC carries a whole
// GM's share of the wave; rollups shave the GL's summary-recording overhead
// on top.
func F1FleetThroughput(scale Scale) Result {
	lcs, gms, waves, wave := 192, 12, 6, 24
	if scale == ScaleFull {
		lcs, gms, waves, wave = 10240, 256, 20, 100
	}
	type variant struct {
		name   string
		batch  int
		rollup time.Duration
	}
	variants := []variant{
		{"sequential", 1, -1},
		{"sequential+rollup", 1, 0},
		{"batched", 32, -1},
		{"batched+rollup", 32, 0},
	}
	tb := metrics.NewTable("config", "LCs", "GMs", "placed", "virtual-time", "per-VM", "placements/s(wall)", "submit-p50", "submit-p95", "submit-p99")
	for _, v := range variants {
		cfg := cluster.DefaultConfig(workload.Grid5000Topology(lcs, gms), 8100)
		cfg.Manager.DispatchBatch = v.batch
		cfg.Manager.RollupInterval = v.rollup
		c := cluster.New(cfg)
		c.Settle(30 * time.Second)
		gen := workload.NewGenerator(17, nil)
		placed := 0
		start := c.Kernel.Now()
		wallStart := time.Now()
		var ferr error
		for w := 0; w < waves; w++ {
			resp, err := c.SubmitAndWait(gen.Batch(wave), time.Hour)
			if err != nil {
				ferr = err
				break
			}
			placed += len(resp.Placed)
		}
		wall := time.Since(wallStart)
		virt := c.Kernel.Now() - start
		if ferr != nil || placed == 0 {
			msg := "nothing placed"
			if ferr != nil {
				msg = ferr.Error()
			}
			tb.AddRow(v.name, lcs, gms, placed, "ERROR: "+msg, "-", "-", "-", "-", "-")
			continue
		}
		// Per-decision latency: one gl.submit-latency.seconds observation per
		// wave (virtual seconds from submission arrival to the response).
		lat := c.Metrics.Summarize("gl.submit-latency.seconds")
		dur := func(sec float64) string {
			return time.Duration(sec * float64(time.Second)).Round(10 * time.Microsecond).String()
		}
		tb.AddRow(v.name, lcs, gms, placed,
			virt.Round(time.Millisecond),
			(virt / time.Duration(placed)).Round(time.Microsecond),
			fmt.Sprintf("%.0f", float64(placed)/wall.Seconds()),
			dur(lat.P50), dur(lat.P95), dur(lat.P99))
	}
	return Result{
		ID:    "F1",
		Title: fmt.Sprintf("Fleet scheduling throughput: %d waves x %d VMs on %d LCs / %d GMs", waves, wave, lcs, gms),
		Table: tb,
		Notes: []string{
			"expected shape: batched dispatch raises placements/s and cuts submit-time percentiles;",
			"per-VM virtual time stays flat in cluster size (the hierarchy absorbs scale, E1)",
			"placements/s(wall) is wall-clock simulator throughput — machine-dependent, gated in CI by BenchmarkPlacementsPerSecond",
		},
	}
}
