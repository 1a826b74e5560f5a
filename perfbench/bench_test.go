package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"snooze/internal/resource"
	"snooze/internal/scheduling"
)

// small returns scaled-down copies of the workloads, so the tests exercise
// the same code paths (provisioning, run chunks, energy, consolidation) in
// well under a second per round.
func small(t *testing.T) []spec {
	t.Helper()
	place := specs["sim-place"]
	place.lcs, place.gms = 32, 4
	steady := specs["sim-steady"]
	steady.lcs, steady.gms, steady.count, steady.run = 32, 4, 48, 2*time.Minute
	energy := specs["sim-energy"]
	energy.lcs, energy.count, energy.run = 8, 16, 30*time.Minute
	return []spec{place, steady, energy}
}

// TestReplayIsDeterministicAndTracerNeutral runs every workload twice
// untraced and once traced on the same seed: the simulated statistics
// (virtual submit latencies, energy, SLA samples, kernel/bus/store counts,
// program counters) must be equal, and every output check must pass.
func TestReplayIsDeterministicAndTracerNeutral(t *testing.T) {
	for _, s := range small(t) {
		t.Run(s.name, func(t *testing.T) {
			a, err := runRound(s, 7, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runRound(s, 7, nil)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			c, err := runRound(s, 7, tr)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []round{a, b, c} {
				if len(r.problems) > 0 {
					t.Fatalf("output checks failed: %v", r.problems)
				}
			}
			if a.sim.Placed == 0 || a.sim.Events == 0 || !(a.sim.EnergyJ > 0) {
				t.Fatalf("round did no work: %+v", a.sim)
			}
			if s.replays > 0 && (a.replayed == 0 || len(a.setups) == 1) {
				t.Errorf("an untraced round of %s did not replay its provisioning", s.name)
			}
			if a.sim.key() != b.sim.key() {
				t.Errorf("same seed, different simulated statistics:\n%s\n%s", a.sim.key(), b.sim.key())
			}
			if a.sim.key() != c.sim.key() {
				t.Errorf("tracing changed the simulated statistics:\n%s\n%s", a.sim.key(), c.sim.key())
			}
			if got := tr.layers[layerSubmit].calls; got != int64(len(a.sim.SubmitVirt)) {
				t.Errorf("traced %d submissions, want %d", got, len(a.sim.SubmitVirt))
			}
			var steps int64
			for _, cl := range tr.classes {
				steps += cl.calls
			}
			if steps != int64(a.sim.Events) || tr.layers[layerStep].calls != steps {
				t.Errorf("classified %d steps, timed %d, kernel processed %d", steps, tr.layers[layerStep].calls, a.sim.Events)
			}
		})
	}
}

// TestSeedChangesInputs guards against a seed that is accepted but ignored.
func TestSeedChangesInputs(t *testing.T) {
	s := small(t)[0]
	a, err := runRound(s, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runRound(s, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.sim.key() == b.sim.key() {
		t.Fatal("seeds 1 and 2 gave identical simulated statistics")
	}
}

// TestWrappersForward checks that the timing decorators are invisible to
// the program: names pass through, and a relocation policy offers
// scheduling.SkipsAnomaly exactly when the wrapped one does.
func TestWrappersForward(t *testing.T) {
	tr := newTracer()
	if got := tr.wrapDispatch(&scheduling.RoundRobinDispatch{}).Name(); got != "round-robin" {
		t.Errorf("dispatch name %q", got)
	}
	if got, want := tr.wrapPlacement(scheduling.FirstFit{}).Name(), (scheduling.FirstFit{}).Name(); got != want {
		t.Errorf("placement name %q, want %q", got, want)
	}
	if got, want := tr.wrapEstimator(resource.LastValue{}).Name(), (resource.LastValue{}).Name(); got != want {
		t.Errorf("estimator name %q, want %q", got, want)
	}
	for _, name := range []string{"overload-relocation", "underload-relocation", "trend-relocation", "trend-underload"} {
		p, err := scheduling.NewRelocationPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		w := tr.wrapRelocation(p)
		if w.Name() != p.Name() {
			t.Errorf("%s: wrapped name %q", name, w.Name())
		}
		_, inner := p.(scheduling.SkipsAnomaly)
		_, outer := w.(scheduling.SkipsAnomaly)
		if inner != outer {
			t.Errorf("%s: SkipsAnomaly inner=%v wrapped=%v", name, inner, outer)
		}
	}
}

// TestMetricsMatchBenchmarkJSON checks that a run reports exactly the
// metrics BENCHMARK.json declares, with the declared units, in both modes.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []decl                  `json:"end_to_end"`
		PerLayer  []decl                  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames)
	}
	s := small(t)[2]
	res := &result{spec: s}
	for i := 0; i < 2; i++ {
		r, err := runRound(s, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		res.rounds = append(res.rounds, r)
	}
	res.tr = newTracer()
	r, err := runRound(s, 3, res.tr)
	if err != nil {
		t.Fatal(err)
	}
	res.traced = append(res.traced, r)
	res.tlayers = append(res.tlayers, res.tr.totals())

	compare := func(kind string, want []decl, got []metric) {
		w := map[string]string{}
		for _, d := range want {
			w[d.Name] = d.Unit
		}
		g := map[string]string{}
		for _, m := range got {
			g[m.name] = m.unit
		}
		for n, u := range w {
			if gu, ok := g[n]; !ok || gu != u {
				t.Errorf("%s metric %s: declared unit %q, reported %q (present=%v)", kind, n, u, gu, ok)
			}
		}
		var extra []string
		for n := range g {
			if _, ok := w[n]; !ok {
				extra = append(extra, n)
			}
		}
		sort.Strings(extra)
		if len(extra) > 0 {
			t.Errorf("%s metrics reported but not declared: %v", kind, extra)
		}
	}
	e2e := res.endToEnd()
	compare("end_to_end", b.EndToEnd, e2e)
	for _, m := range e2e {
		if !(m.value > 0) {
			t.Errorf("end-to-end metric %s = %v, want > 0", m.name, m.value)
		}
	}
	compare("per_layer", b.PerLayer, res.layerMetrics())
	var out strings.Builder
	if err := report(&out, true, 1, 0, e2e); err != nil {
		t.Error(err)
	}
	last := out.String()[strings.LastIndex(strings.TrimSpace(out.String()), "\n")+1:]
	var line struct {
		Correct   *bool                      `json:"correct"`
		Attempted *int                       `json:"attempted"`
		Failed    *int                       `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &line); err != nil || line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(e2e) {
		t.Errorf("last output line %q does not parse as the result object (%v)", last, err)
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10, 0.5}, {40, 0.75}, {100, 0.9}, {200, 0.95}, {1000, 0.95}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median by nearest rank = %v, want 3", got)
	}
}
