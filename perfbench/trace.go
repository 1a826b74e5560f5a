package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"snooze/internal/cluster"
	"snooze/internal/hierarchy"
	"snooze/internal/protocol"
	"snooze/internal/resource"
	"snooze/internal/scheduling"
	"snooze/internal/scheduling/view"
	"snooze/internal/simkernel"
	"snooze/internal/types"
)

// maxSpans bounds the spans kept in memory per run; later spans are still
// aggregated into the layer totals, only not written out.
const maxSpans = 100_000

// Layer names: the boundaries the traced run times from outside the
// program. Step classes are kept apart in tracer.classes.
const (
	layerSubmit   = "hierarchy.submit"
	layerStep     = "simkernel.step"
	layerDispatch = "scheduling.dispatch"
	layerPlace    = "scheduling.place"
	layerRelocate = "scheduling.relocate"
	layerEstimate = "resource.estimate"
)

// stepClasses name what a kernel step did, judged by the first public
// counter in this order that it advanced: an online-consolidation solve, a
// dispatch-policy call, a placement-policy call (or gm.place-* count), a
// relocation-policy call, a store reduction, a store append, a bus delivery;
// "other" is a step that moved none of them (timers, bookkeeping).
var stepClasses = []string{"solve", "dispatch", "place", "relocate", "reduce", "append", "deliver", "other"}

// layer accumulates one boundary's work: calls, busy time and self time
// (busy minus the time of the timed boundaries nested inside it).
type layer struct {
	calls int64
	busy  time.Duration
	self  time.Duration
}

type frame struct {
	l     *layer
	start time.Time
	child time.Duration
	span  int // index into spans, -1 when not recorded
}

// spanRec is one recorded span. Spans of one submission share Trace; the
// policy calls a kernel step makes outside any submission share "run".
type spanRec struct {
	Name   string `json:"name"`
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer is the traced run's instrumentation: timing decorators around the
// ManagerConfig policies, a step-by-step kernel driver that times and
// classifies every Kernel.Step, and a span recorder. All of it lives in the
// benchmark; the program runs unmodified. Policies run on the kernel's
// goroutine, so the tracer needs no locking.
type tracer struct {
	epoch   time.Time
	layers  map[string]*layer
	classes map[string]*layer
	stack   []frame
	spans   []spanRec
	dropped int
	trace   string
	traces  int

	c             *cluster.Cluster
	consolidation bool
	sentinels     uint64
	pendingPeak   int
	solveHost     time.Duration
	submitPolicy  time.Duration // policy and estimator time inside submissions
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), layers: map[string]*layer{}, classes: map[string]*layer{}}
	for _, n := range []string{layerSubmit, layerStep, layerDispatch, layerPlace, layerRelocate, layerEstimate} {
		t.layers[n] = &layer{}
	}
	t.reset()
	return t
}

// reset clears the per-round totals (the wrappers also count during set-up).
func (t *tracer) reset() {
	for _, l := range t.layers {
		*l = layer{}
	}
	for _, n := range stepClasses {
		t.classes[n] = &layer{}
	}
	t.sentinels, t.pendingPeak, t.solveHost, t.submitPolicy = 0, 0, 0, 0
}

// begin starts a round's timed phase on c.
func (t *tracer) begin(c *cluster.Cluster, consolidation bool) {
	t.reset()
	t.c, t.consolidation = c, consolidation
}

// end detaches the tracer from the round's cluster.
func (t *tracer) end() { t.c = nil }

func (t *tracer) enter(name string, record bool) {
	f := frame{l: t.layers[name], start: time.Now(), span: -1}
	if record && t.c != nil {
		if len(t.spans) < maxSpans {
			parent := -1
			for i := len(t.stack) - 1; i >= 0; i-- {
				if t.stack[i].span >= 0 {
					parent = t.spans[t.stack[i].span].ID
					break
				}
			}
			trace := t.trace
			if trace == "" {
				trace = "run"
			}
			f.span = len(t.spans)
			t.spans = append(t.spans, spanRec{Name: name, Trace: trace, ID: len(t.spans), Parent: parent, Start: f.start.Sub(t.epoch).Nanoseconds()})
		} else {
			t.dropped++
		}
	}
	t.stack = append(t.stack, f)
}

// exit closes the innermost frame and returns its busy and self time.
func (t *tracer) exit() (busy, self time.Duration) {
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	end := time.Now()
	busy = end.Sub(f.start)
	self = busy - f.child
	f.l.calls++
	f.l.busy += busy
	f.l.self += self
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += busy
	}
	if f.span >= 0 {
		t.spans[f.span].End = end.Sub(t.epoch).Nanoseconds()
	}
	return busy, self
}

func (t *tracer) policyTime() time.Duration {
	return t.layers[layerDispatch].busy + t.layers[layerPlace].busy + t.layers[layerRelocate].busy + t.layers[layerEstimate].busy
}

// traceTotals is a copy of the tracer's per-round totals.
type traceTotals struct {
	layers       map[string]layer
	classes      map[string]layer
	pendingPeak  int
	solveHost    time.Duration
	submitPolicy time.Duration
}

func (t *tracer) totals() traceTotals {
	tt := traceTotals{layers: map[string]layer{}, classes: map[string]layer{},
		pendingPeak: t.pendingPeak, solveHost: t.solveHost, submitPolicy: t.submitPolicy}
	for n, l := range t.layers {
		tt.layers[n] = *l
	}
	for n, l := range t.classes {
		tt.classes[n] = *l
	}
	return tt
}

// probe is the set of public counters a step is classified by.
type probe struct {
	solves, dispatch, place, relocate int64
	reductions, appends, delivered    uint64
}

func (t *tracer) probe() probe {
	c := t.c
	p := probe{
		dispatch: t.layers[layerDispatch].calls,
		place:    t.layers[layerPlace].calls + c.Metrics.Count("gm.place-ok") + c.Metrics.Count("gm.place-failed"),
		relocate: t.layers[layerRelocate].calls,
	}
	st := c.Telemetry.Store()
	p.reductions, p.appends = st.TotalReductions(), st.TotalSamples()
	p.delivered, _ = c.Bus.Stats()
	if t.consolidation {
		p.solves = t.solves()
	}
	return p
}

// solves counts the consolidation solves begun so far, from the optimizer's
// public status: a round is solved in the tick that either starts executing
// a plan (InRound) or finishes at once (no improvement). A tick skipped on
// an unchanged view epoch does neither.
func (t *tracer) solves() int64 {
	var n int64
	for _, m := range t.c.Managers {
		if m.Role() != hierarchy.RoleGM {
			continue
		}
		if st, ok := m.ConsolidationStatus(); ok {
			n += int64(st.Rounds)
			if st.InRound {
				n++
			}
		}
	}
	return n
}

func classify(a, b probe) string {
	switch {
	case b.solves > a.solves:
		return "solve"
	case b.dispatch > a.dispatch:
		return "dispatch"
	case b.place > a.place:
		return "place"
	case b.relocate > a.relocate:
		return "relocate"
	case b.reductions > a.reductions:
		return "reduce"
	case b.appends > a.appends:
		return "append"
	case b.delivered > a.delivered:
		return "deliver"
	}
	return "other"
}

// step runs and times one Kernel.Step. count is false for the driver's own
// sentinel events, which are kept out of every total.
func (t *tracer) step(k *simkernel.Kernel, count func() bool) bool {
	if p := k.Pending(); p > t.pendingPeak {
		t.pendingPeak = p
	}
	before := t.probe()
	t.enter(layerStep, false)
	ok := k.Step()
	d, self := t.exit()
	if !count() {
		st := t.layers[layerStep]
		st.calls--
		st.busy -= d
		st.self -= self
		return ok
	}
	after := t.probe()
	cl := t.classes[classify(before, after)]
	cl.calls++
	cl.busy += d
	cl.self += self
	if after.solves > before.solves {
		t.solveHost += d
	}
	return ok
}

// submit is Cluster.SubmitAndWait's loop with every step timed.
func (t *tracer) submit(c *cluster.Cluster, vms []types.VMSpec) (protocol.SubmitResponse, error) {
	t.trace = fmt.Sprintf("submit-%d", t.traces)
	t.traces++
	t.enter(layerSubmit, true)
	p0 := t.policyTime()
	var resp protocol.SubmitResponse
	var rerr error
	done := false
	c.Client.Submit(vms, func(r protocol.SubmitResponse, err error) {
		resp, rerr, done = r, err, true
	})
	always := func() bool { return true }
	deadline := c.Kernel.Now() + maxSubmitSim
	for !done && c.Kernel.Now() < deadline {
		if !t.step(c.Kernel, always) {
			break
		}
	}
	t.submitPolicy += t.policyTime() - p0
	t.exit()
	t.trace = ""
	if !done {
		return resp, cluster.ErrTimeout
	}
	return resp, rerr
}

// advance is Cluster.Settle (Kernel.Run up to now+d) done step by step. A
// sentinel event at the target time stops the loop; because events that
// run at exactly that time may schedule more events at that time, the
// sentinel re-arms itself until a pass runs none, which reproduces Run's
// "every event at or before until" rule. Sentinels only consume sequence
// numbers, so the order of the program's own events is unchanged.
func (t *tracer) advance(c *cluster.Cluster, d time.Duration) {
	k := c.Kernel
	until := k.Now() + d
	stop, fired := false, false
	var last uint64
	var arm func()
	arm = func() {
		t.sentinels++
		k.At(until, func() {
			fired = true
			// Processed already counts this sentinel.
			if k.Processed()-1 == last {
				stop = true
				return
			}
			last = k.Processed()
			arm()
		})
	}
	last = k.Processed()
	arm()
	isReal := func() bool {
		f := fired
		fired = false
		return !f
	}
	for !stop {
		if !t.step(k, isReal) {
			break
		}
	}
}

// Timing decorators. Each forwards Name and, for relocation, the optional
// scheduling.SkipsAnomaly extension, so the program cannot tell them from
// the policy they wrap.

type timedDispatch struct {
	t *tracer
	p scheduling.DispatchPolicy
}

func (w timedDispatch) Candidates(vm types.VMSpec, groups []view.Group, ex *scheduling.Explain) []types.GroupManagerID {
	w.t.enter(layerDispatch, true)
	defer w.t.exit()
	return w.p.Candidates(vm, groups, ex)
}

func (w timedDispatch) Name() string { return w.p.Name() }

type timedPlacement struct {
	t *tracer
	p scheduling.PlacementPolicy
}

func (w timedPlacement) Place(vm types.VMSpec, nodes []view.Node, ex *scheduling.Explain) (types.NodeID, bool) {
	w.t.enter(layerPlace, true)
	defer w.t.exit()
	return w.p.Place(vm, nodes, ex)
}

func (w timedPlacement) Name() string { return w.p.Name() }

type timedRelocation struct {
	t *tracer
	p scheduling.RelocationPolicy
}

func (w timedRelocation) Relocate(src view.Node, srcVMs []types.VMStatus, others []view.Node, ex *scheduling.Explain) []scheduling.Move {
	w.t.enter(layerRelocate, true)
	defer w.t.exit()
	return w.p.Relocate(src, srcVMs, others, ex)
}

func (w timedRelocation) Name() string { return w.p.Name() }

// timedSkippingRelocation wraps a policy that implements SkipsAnomaly.
type timedSkippingRelocation struct {
	timedRelocation
	s scheduling.SkipsAnomaly
}

func (w timedSkippingRelocation) SkipAnomaly(src view.Node) bool { return w.s.SkipAnomaly(src) }

type timedEstimator struct {
	t *tracer
	e resource.Estimator
}

func (w timedEstimator) Estimate(window []types.ResourceVector) types.ResourceVector {
	w.t.enter(layerEstimate, false)
	defer w.t.exit()
	return w.e.Estimate(window)
}

func (w timedEstimator) Name() string { return w.e.Name() }

func (t *tracer) wrapDispatch(p scheduling.DispatchPolicy) scheduling.DispatchPolicy {
	return timedDispatch{t, p}
}

func (t *tracer) wrapPlacement(p scheduling.PlacementPolicy) scheduling.PlacementPolicy {
	return timedPlacement{t, p}
}

func (t *tracer) wrapRelocation(p scheduling.RelocationPolicy) scheduling.RelocationPolicy {
	w := timedRelocation{t, p}
	if s, ok := p.(scheduling.SkipsAnomaly); ok {
		return timedSkippingRelocation{w, s}
	}
	return w
}

func (t *tracer) wrapEstimator(e resource.Estimator) resource.Estimator {
	return timedEstimator{t, e}
}

// writeSpans writes the recorded spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
