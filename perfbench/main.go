// Command perfbench is the repository benchmark: it runs one named workload
// on the simulated Snooze hierarchy and prints the end-to-end metrics
// (default) or, with -trace 1, the per-layer metrics of a traced run, each
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// The program is driven from outside only, through its public entry points
// (cluster.Cluster, simkernel.Kernel.Step, the ManagerConfig policies) and
// the counters it already exposes. Run it from the repository root:
//
//	bash perfbench/run.sh --workload sim-place --seed 1 --seconds 30 --trace 0
//
// It exits non-zero when an output check fails; NOTES.md explains the
// workloads, the metrics and which layer metric should move which
// end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// wallCap stops adding rounds once a run has lasted this long, whatever
// -seconds asks, so a run always ends well inside three minutes.
const wallCap = 100 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, " | "))
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 30, "measured host seconds (at least 3 rounds are always run)")
	trace := fs.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	out := fs.String("out", ".bench_out", "directory for the span file of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, ok := specs[*name]
	if (!ok && *name != "deploy-rest") || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s, deploy-rest), -seconds >= 1 and -trace 0|1\n", strings.Join(workloadNames, ", "))
		return 2
	}
	if !ok {
		return runDeploy(*seed, time.Duration(*seconds)*time.Second, *trace == 1, *out, stdout, stderr)
	}
	res, err := measure(s, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	var ms []metric
	if *trace == 1 {
		ms = res.layerMetrics()
		res.printLayerTable(stdout)
		path := filepath.Join(*out, fmt.Sprintf("%s-seed%d.spans.jsonl", s.name, *seed))
		if err := res.tr.writeSpans(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s (%d more aggregated only)\n", len(res.tr.spans), path, res.tr.dropped)
	} else {
		ms = res.endToEnd()
	}
	for _, p := range res.problems {
		fmt.Fprintf(stdout, "CHECK FAILED: %s\n", p)
	}
	attempted, failed := res.counts()
	if err := report(stdout, len(res.problems) == 0, attempted, failed, ms); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if len(res.problems) > 0 {
		return 1
	}
	return 0
}

// metric is one reported figure. note states its base: the sample count,
// the quantile used, or what a ratio divides by.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// result is everything one run measured.
type result struct {
	spec     spec
	rounds   []round // untraced rounds (a traced run's reference round)
	traced   []round
	tlayers  []traceTotals // per traced round
	tr       *tracer
	problems []string
}

// measure runs rounds of s until -seconds of timed phase, replays
// included, have been measured (at least three rounds). A traced run first runs one untraced reference round,
// then traced rounds (at least two) until -seconds of them are measured.
// Every round replays the same inputs, so every round's simulated
// statistics must equal the first one's.
func measure(s spec, seed int64, budget time.Duration, traced bool) (*result, error) {
	res := &result{spec: s}
	start := time.Now()
	more := func(done, min int, timed time.Duration) bool {
		if done < min {
			return true
		}
		return timed < budget && time.Since(start) < wallCap
	}
	refs := 3
	if traced {
		// The reference round is compared with traced rounds, which do
		// not replay, so it does not either.
		refs, s.replays = 1, 0
	}
	var timed time.Duration
	for i := 0; more(i, refs, timed) && (!traced || i < refs); i++ {
		r, err := runRound(s, seed, nil)
		if err != nil {
			return nil, err
		}
		res.rounds = append(res.rounds, r)
		timed += r.timed + r.replayHost
	}
	if traced {
		res.tr = newTracer()
		timed = 0
		for i := 0; more(i, 2, timed); i++ {
			r, err := runRound(s, seed, res.tr)
			if err != nil {
				return nil, err
			}
			res.traced = append(res.traced, r)
			res.tlayers = append(res.tlayers, res.tr.totals())
			timed += r.timed
		}
	}
	ref := res.rounds[0].sim.key()
	for i, r := range res.all() {
		res.problems = append(res.problems, r.problems...)
		if r.sim.key() != ref {
			res.problems = append(res.problems, fmt.Sprintf("round %d's simulated statistics differ from round 0's (traced=%v):\n  %s\n  %s", i, i >= len(res.rounds), ref, r.sim.key()))
		}
	}
	return res, nil
}

func (res *result) all() []round { return append(append([]round(nil), res.rounds...), res.traced...) }

// endToEnd computes the end-to-end metrics from the untraced rounds. Host
// times are medians over all submit calls or over rounds; simulated
// figures are round 0's, which every round reproduces.
func (res *result) endToEnd() []metric {
	rs := res.rounds
	n := len(rs)
	var setup, heap, rates, speeds []float64
	for _, r := range rs {
		for _, d := range r.setups {
			setup = append(setup, d.Seconds())
		}
		heap = append(heap, float64(r.heapBytes)/(1<<20))
		rates = append(rates, r.submitRate...)
		speeds = append(speeds, res.spec.run.Seconds()/r.runHost.Seconds())
	}
	sim := rs[0].sim
	virt := msOf(sim.SubmitVirt)
	q := tailQuantile(len(virt))
	rounds := fmt.Sprintf("median of %d rounds", n)
	return []metric{
		{"setup_s", median(setup), "s", fmt.Sprintf("median of %d set-ups (fleet build + 30 virtual s settle)", len(setup))},
		{"placements_per_s", median(rates), "VMs/s", fmt.Sprintf("median over n=%d submit calls of VMs placed / host time", len(rates))},
		{"submit_virt_p50_ms", quantile(virt, 0.5), "ms", fmt.Sprintf("simulated, n=%d calls", len(virt))},
		{"submit_virt_p95_ms", quantile(virt, q), "ms", fmt.Sprintf("simulated, p%.1f of n=%d calls", 100*q, len(virt))},
		{"placed_frac", ratio(float64(sim.Placed), float64(sim.Submitted)), "share", fmt.Sprintf("base: %d VMs submitted", sim.Submitted)},
		{"sim_speed", median(speeds), "sim-s/s", fmt.Sprintf("%s; %.0f virtual s run after provisioning / host time", rounds, res.spec.run.Seconds())},
		{"heap_mb", median(heap), "MB", rounds + "; live heap after forced GC, fleet alive"},
		{"energy_kwh", sim.EnergyJ / 3.6e6, "kWh", fmt.Sprintf("simulated, fleet energy over %.0f virtual s", sim.Virtual.Seconds())},
		{"sla_met_frac", 1 - ratio(float64(sim.SLAUnmet), float64(sim.SLASampled)), "share", fmt.Sprintf("base: %d running-VM instants sampled", sim.SLASampled)},
	}
}

// layerMetrics computes the per-layer metrics of a traced run. Counts are
// per round (every round has the same ones); host times are means over the
// traced rounds.
func (res *result) layerMetrics() []metric {
	sim := res.traced[0].sim
	n := float64(len(res.tlayers))
	mean := func(f func(traceTotals) time.Duration) float64 {
		var sum time.Duration
		for _, t := range res.tlayers {
			sum += f(t)
		}
		return float64(sum) / n
	}
	busy := func(l string) float64 { return mean(func(t traceTotals) time.Duration { return t.layers[l].busy }) }
	calls := func(l string) float64 { return float64(res.tlayers[0].layers[l].calls) }
	cnt := func(name string) float64 { return float64(sim.Counters[name]) }
	placed := float64(sim.Placed)
	events := float64(sim.Events)
	virtS := sim.Virtual.Seconds()
	peak := 0
	for _, t := range res.tlayers {
		peak = max(peak, t.pendingPeak)
	}
	stepBusy := busy(layerStep)
	submitBusy := busy(layerSubmit)
	submitPolicy := mean(func(t traceTotals) time.Duration { return t.submitPolicy })
	placeOK, placeFail := cnt("gm.place-ok"), cnt("gm.place-failed")

	ref := res.rounds[0]
	wall := msOf(ref.submitWall)
	q := tailQuantile(len(wall))
	ms := []metric{
		{"hierarchy.submit_wall_p50_ms", quantile(wall, 0.5), "ms", fmt.Sprintf("untraced reference round, n=%d submit calls", len(wall))},
		{"hierarchy.submit_wall_p95_ms", quantile(wall, q), "ms", fmt.Sprintf("untraced reference round, p%.1f of n=%d", 100*q, len(wall))},
		{"simkernel.events", events, "count", "kernel events in the timed phase"},
		{"simkernel.pending_peak", float64(peak), "count", "most events queued before a step"},
		{"simkernel.ns_per_event", ratio(stepBusy, events), "ns", "base: step host time / events"},
		{"simkernel.events_per_placement", ratio(events, placed), "events/VM", fmt.Sprintf("base: %d VMs placed", sim.Placed)},
		{"simkernel.busy_s", stepBusy / 1e9, "s", "host time inside Kernel.Step"},
		{"transport.delivered", float64(sim.Delivered), "count", "bus messages delivered"},
		{"transport.dropped", float64(sim.Dropped), "count", "bus messages dropped"},
		{"transport.drop_ratio", ratio(float64(sim.Dropped), float64(sim.Delivered+sim.Dropped)), "ratio", "base: delivered + dropped"},
		{"telemetry.appends", float64(sim.Appends), "count", "store samples appended"},
		{"telemetry.appends_per_virt_s", ratio(float64(sim.Appends), virtS), "1/sim-s", fmt.Sprintf("base: %.0f virtual s", virtS)},
		{"telemetry.reductions", float64(sim.Reductions), "count", "store reductions"},
		{"telemetry.reductions_per_placement", ratio(float64(sim.Reductions), placed), "1/VM", fmt.Sprintf("base: %d VMs placed", sim.Placed)},
		{"telemetry.series", float64(sim.Series), "count", "series held at the end"},
		{"telemetry.heap_bytes_per_series", ratio(float64(res.rounds[0].heapBytes), float64(sim.Series)), "B", "base: live heap of the untraced round / series"},
		{"telemetry.journal_events", float64(sim.Journal), "count", "journal events appended"},
		{"view.memo_hits", float64(sim.MemoHits), "count", "memoized group view builds reused"},
		{"view.memo_misses", float64(sim.MemoMisses), "count", "group view builds recomputed"},
		{"view.memo_hit_ratio", ratio(float64(sim.MemoHits), float64(sim.MemoHits+sim.MemoMisses)), "ratio", "base: hits + misses"},
		{"scheduling.dispatch_calls", calls(layerDispatch), "count", "DispatchPolicy.Candidates"},
		{"scheduling.dispatch_ns", busy(layerDispatch), "ns", "host time in dispatch"},
		{"scheduling.place_calls", calls(layerPlace), "count", "PlacementPolicy.Place"},
		{"scheduling.place_ns", busy(layerPlace), "ns", "host time in placement"},
		{"scheduling.relocate_calls", calls(layerRelocate), "count", "RelocationPolicy.Relocate"},
		{"scheduling.relocate_ns", busy(layerRelocate), "ns", "host time in relocation"},
		{"scheduling.place_success_ratio", ratio(placeOK, placeOK+placeFail), "ratio", "base: gm.place-ok + gm.place-failed"},
		{"hierarchy.gl.probe_depth", ratio(sim.ProbeSum, float64(sim.ProbeCount)), "GMs", fmt.Sprintf("mean of %d gl.probe-depth observations", sim.ProbeCount)},
		{"resource.estimate_calls", calls(layerEstimate), "count", "Estimator.Estimate"},
		{"resource.estimate_ns", busy(layerEstimate), "ns", "host time in estimation"},
		{"consolidation.rounds", cnt("gm.consolidation-rounds"), "count", "online optimizer rounds completed"},
		{"consolidation.skips_unchanged", cnt("gm.consolidation-skips-unchanged"), "count", "ticks skipped on an unchanged view epoch"},
		{"consolidation.solve_host_s", mean(func(t traceTotals) time.Duration { return t.solveHost }) / 1e9, "s", "host time of the steps that ran a solve"},
		{"consolidation.migrations", cnt("gm.consolidation-migrations"), "count", "optimizer migrations executed"},
		{"consolidation.cancels", cnt("gm.consolidation-cancels"), "count", "optimizer plans cancelled"},
		{"hypervisor.migrations", float64(sim.Migrations), "count", "live migrations completed"},
		{"power.suspends", cnt("gm.suspends"), "count", "nodes suspended"},
		{"power.wakes", cnt("gm.wakes"), "count", "nodes woken"},
		{"hierarchy.gl.submissions", cnt("gl.submissions"), "count", "VMs the GL received"},
		{"hierarchy.gm.rollups", cnt("gm.rollups"), "count", "GM rollup appends"},
		{"hierarchy.gm.monitor_rejects", cnt("gm.monitor-rejects"), "count", "monitor reports rejected"},
		{"hierarchy.gm.lc_failures", cnt("gm.lc-failures"), "count", "LCs declared failed"},
		{"hierarchy.gm.relocations", cnt("gm.relocations"), "count", "relocation moves planned"},
		{"hierarchy.submit_busy_ns", submitBusy, "ns", fmt.Sprintf("host time in %d submit calls", int(calls(layerSubmit)))},
		{"hierarchy.submit_self_ns", submitBusy - submitPolicy, "ns", "submit time minus policy and estimator time"},
		{"obs.spans", float64(sim.Spans), "count", "decision spans retained by the program's tracer"},
	}
	for _, cl := range stepClasses {
		c := cl
		ms = append(ms,
			metric{"steps." + c + ".count", float64(res.tlayers[0].classes[c].calls), "count", "kernel steps classed " + c},
			metric{"steps." + c + ".busy_s", mean(func(t traceTotals) time.Duration { return t.classes[c].busy }) / 1e9, "s", fmt.Sprintf("share of step time %.3f", ratio(mean(func(t traceTotals) time.Duration { return t.classes[c].busy }), stepBusy))},
		)
	}
	refT := res.rounds[0].timed.Seconds()
	var tt []float64
	for _, r := range res.traced {
		tt = append(tt, r.timed.Seconds())
	}
	ms = append(ms,
		metric{"trace.overhead_frac", median(tt)/refT - 1, "ratio", fmt.Sprintf("base: untraced round %.3f s vs traced median %.3f s", refT, median(tt))},
		metric{"trace.spans", float64(len(res.tr.spans)), "count", "spans recorded over all traced rounds"},
	)
	return ms
}

// printLayerTable prints the per-layer busy/self table of the traced run.
func (res *result) printLayerTable(w io.Writer) {
	t := res.tlayers
	n := float64(len(t))
	stepBusy := 0.0
	for _, x := range t {
		stepBusy += float64(x.layers[layerStep].busy)
	}
	stepBusy /= n
	fmt.Fprintf(w, "per-layer report: %s, %d traced rounds (means per round; self = busy minus the timed boundaries nested inside: steps in a submission, policy calls in a step)\n", res.spec.name, len(t))
	fmt.Fprintf(w, "%-22s %10s %12s %12s %10s\n", "layer", "count", "busy_ms", "self_ms", "busy/step")
	row := func(name string, l func(traceTotals) layer) {
		var busy, self float64
		for _, x := range t {
			busy += float64(l(x).busy)
			self += float64(l(x).self)
		}
		busy, self = busy/n, self/n
		fmt.Fprintf(w, "%-22s %10d %12.3f %12.3f %10.4f\n", name, l(t[0]).calls, busy/1e6, self/1e6, ratio(busy, stepBusy))
	}
	for _, ln := range []string{layerSubmit, layerStep, layerDispatch, layerPlace, layerRelocate, layerEstimate} {
		l := ln
		row(l, func(x traceTotals) layer { return x.layers[l] })
	}
	for _, cl := range stepClasses {
		c := cl
		row("step:"+c, func(x traceTotals) layer { return x.classes[c] })
	}
	fmt.Fprintf(w, "busy/step base: %.3f ms of Kernel.Step host time per round\n", stepBusy/1e6)
	var tt []float64
	for _, r := range res.traced {
		tt = append(tt, r.timed.Seconds())
	}
	fmt.Fprintf(w, "tracing overhead: timed phase %.3f s untraced vs %.3f s traced (median of %d) = %+.1f%%\n",
		res.rounds[0].timed.Seconds(), median(tt), len(tt), 100*(median(tt)/res.rounds[0].timed.Seconds()-1))
}

// report prints every metric with its unit and base, then the result line:
// one JSON object with the keys correct, attempted, failed and metrics.
func report(w io.Writer, correct bool, attempted, failed int, ms []metric) error {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]val{}}
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		out.Metrics[m.name] = val{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	for _, m := range ms {
		fmt.Fprintf(w, "%-34s %14.6g %-10s %s\n", m.name, m.value, m.unit, m.note)
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// counts returns the VMs submitted and the failed operations (unplaced, or
// placed and found nowhere) over every round of the run, replays included.
func (res *result) counts() (attempted, failed int) {
	for _, r := range res.all() {
		attempted += r.sim.Submitted + r.replayed
		failed += r.unplaced + r.lost
	}
	return attempted, failed
}
