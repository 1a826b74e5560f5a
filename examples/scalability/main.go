// Scalability: grow the hierarchy from 16 to 10240 local controllers and
// watch the virtual-time cost of VM submission stay flat — the property the
// paper attributes to distributing VM management across group managers
// (Section II-F: "the system remains highly scalable with increasing amounts
// of VMs and hosts"). Every row runs on the deterministic simkernel clock;
// the second half of each row shows batched dispatch (the GL coalescing a
// submission into one multi-VM placement request per group manager), which
// multiplies fleet-scale throughput without changing placement outcomes.
package main

import (
	"fmt"
	"log"
	"time"

	"snooze"
)

func main() {
	fmt.Println("LCs    GMs  dispatch    submit(100 VMs)  per-VM  submit-p95  placed")
	for _, p := range []struct{ lcs, gms int }{
		{16, 2}, {64, 4}, {144, 8}, {256, 12}, {1024, 32}, {4096, 128}, {10240, 256},
	} {
		for _, batch := range []int{1, 32} {
			cfg := snooze.DefaultClusterConfig(snooze.Grid5000Topology(p.lcs, p.gms), int64(p.lcs))
			cfg.Manager.DispatchBatch = batch
			c := snooze.NewCluster(cfg)
			c.Settle(30 * time.Second)
			gen := snooze.NewGenerator(1, nil)
			start := c.Kernel.Now()
			resp, err := c.SubmitAndWait(gen.Batch(100), time.Hour)
			if err != nil {
				log.Fatal(err)
			}
			elapsed := c.Kernel.Now() - start
			mode := "sequential"
			if batch > 1 {
				mode = "batched"
			}
			// gl.submit-latency.seconds records virtual seconds per submission.
			p95 := time.Duration(c.Metrics.Summarize("gl.submit-latency.seconds").P95 * float64(time.Second))
			fmt.Printf("%-6d %-4d %-11s %-16v %-7v %-11v %d\n",
				p.lcs, p.gms, mode, elapsed.Round(time.Millisecond),
				(elapsed / time.Duration(len(resp.Placed))).Round(time.Microsecond),
				p95.Round(10*time.Microsecond), len(resp.Placed))
		}
	}
}
