package apiv1

import (
	"context"
	"errors"
	"testing"
	"time"

	"snooze/internal/metrics"
	"snooze/internal/protocol"
	"snooze/internal/telemetry"
	"snooze/internal/types"
)

func TestResourceVectorRoundTrip(t *testing.T) {
	rv := types.RV(2.5, 4096, 100, 50)
	got := ToResourceVector(FromResourceVector(rv))
	if got != rv {
		t.Fatalf("round trip: %+v != %+v", got, rv)
	}
}

func TestVMSpecRoundTrip(t *testing.T) {
	spec := VMSpec{ID: "vm-1", Requested: Resources{CPU: 2, MemoryMB: 2048}, TraceID: "bursty"}
	internal := ToVMSpec(spec)
	if internal.ID != "vm-1" || internal.Requested.Memory != 2048 || internal.TraceID != "bursty" {
		t.Fatalf("ToVMSpec: %+v", internal)
	}
	batch := ToVMSpecs([]VMSpec{spec, {ID: "vm-2"}})
	if len(batch) != 2 || batch[1].ID != "vm-2" {
		t.Fatalf("ToVMSpecs: %+v", batch)
	}
}

func TestFromVMStatusNodeOverride(t *testing.T) {
	st := types.VMStatus{
		Spec:  types.VMSpec{ID: "v", Requested: types.RV(1, 1024, 10, 10)},
		State: types.VMRunning,
		Node:  "from-status",
		Used:  types.RV(0.5, 512, 1, 1),
	}
	if vm := FromVMStatus(st, "override"); vm.Node != "override" {
		t.Fatalf("explicit node ignored: %+v", vm)
	}
	vm := FromVMStatus(st, "")
	if vm.Node != "from-status" || vm.State != "running" || vm.Used.CPU != 0.5 {
		t.Fatalf("status node fallback: %+v", vm)
	}
}

func TestFromNodeStatus(t *testing.T) {
	st := types.NodeStatus{
		Spec:     types.NodeSpec{ID: "n1", Capacity: types.RV(8, 32768, 1000, 1000)},
		Power:    types.PowerSuspended,
		Reserved: types.RV(2, 2048, 20, 20),
		VMs:      []types.VMID{"a", "b"},
		Idle:     false,
	}
	n := FromNodeStatus(st)
	if n.ID != "n1" || n.Power != "suspended" || len(n.VMs) != 2 || n.Capacity.CPU != 8 {
		t.Fatalf("FromNodeStatus: %+v", n)
	}
}

func TestFromSubmitResponse(t *testing.T) {
	resp := protocol.SubmitResponse{
		Placed:   map[types.VMID]types.NodeID{"a": "n1"},
		Unplaced: []types.VMID{"b"},
	}
	out := FromSubmitResponse(resp)
	if out.Placed["a"] != "n1" || len(out.Unplaced) != 1 || out.Unplaced[0] != "b" {
		t.Fatalf("FromSubmitResponse: %+v", out)
	}
}

func TestFromTopologyResponse(t *testing.T) {
	resp := protocol.TopologyResponse{
		GL: "mgr:gm-00",
		GMs: []protocol.TopologyGM{{
			GM:      "gm-01",
			Addr:    "mgr:gm-01",
			Summary: types.GroupSummary{GM: "gm-01", Total: types.RV(16, 65536, 2000, 2000), ActiveLCs: 2, VMs: 3},
			LCs:     []protocol.TopologyLC{{ID: "n1", Power: "on", VMs: 3, Capacity: types.RV(8, 32768, 1000, 1000)}},
		}},
	}
	topo := FromTopologyResponse(resp)
	if topo.GL != "mgr:gm-00" || len(topo.GMs) != 1 {
		t.Fatalf("FromTopologyResponse: %+v", topo)
	}
	gm := topo.GMs[0]
	if gm.Summary.ActiveLCs != 2 || gm.Summary.VMs != 3 || len(gm.LCs) != 1 || gm.LCs[0].Capacity.CPU != 8 {
		t.Fatalf("GM conversion: %+v", gm)
	}
}

func TestFromRegistry(t *testing.T) {
	if snap := FromRegistry(nil); snap.Counters != nil || snap.Series != nil || snap.Gauges != nil {
		t.Fatalf("nil registry: %+v", snap)
	}
	r := metrics.NewRegistry()
	r.Inc("c", 3)
	r.SetGauge("g", 1.5)
	for i := 0; i < 600; i++ {
		r.Observe("s", float64(i%10))
	}
	snap := FromRegistry(r)
	if snap.Counters["c"] != 3 || snap.Gauges["g"] != 1.5 {
		t.Fatalf("counters/gauges: %+v", snap)
	}
	// The summary covers the same lifetime population as the histogram.
	if s, h := snap.Series["s"], snap.Histograms["s"]; s.N != 600 || int64(s.N) != h.Count || s.Min != 0 || s.Max != 9 {
		t.Fatalf("series summary %+v, histogram %+v", s, h)
	}
}

func TestPlanConsolidation(t *testing.T) {
	nodes := []Node{
		{ID: "n1", Power: "on", Capacity: Resources{CPU: 8, MemoryMB: 32768, NetRxMbps: 1000, NetTxMbps: 1000}},
		{ID: "n2", Power: "on", Capacity: Resources{CPU: 8, MemoryMB: 32768, NetRxMbps: 1000, NetTxMbps: 1000}},
		{ID: "n3", Power: "suspended", Capacity: Resources{CPU: 8, MemoryMB: 32768, NetRxMbps: 1000, NetTxMbps: 1000}},
	}
	vms := []VM{
		{ID: "a", State: "running", Node: "n1", Requested: Resources{CPU: 1, MemoryMB: 1024, NetRxMbps: 10, NetTxMbps: 10}},
		{ID: "b", State: "running", Node: "n2", Requested: Resources{CPU: 1, MemoryMB: 1024, NetRxMbps: 10, NetTxMbps: 10}},
		{ID: "c", State: "pending", Node: "n1", Requested: Resources{CPU: 1, MemoryMB: 1024, NetRxMbps: 10, NetTxMbps: 10}},
	}
	plan, err := PlanConsolidation(vms, nodes, ConsolidationRequest{Algorithm: AlgorithmFFD}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Pending VM and suspended host are excluded; the 2 running VMs fit one
	// host.
	if plan.VMs != 2 || plan.HostsTotal != 2 || plan.HostsBefore != 2 || plan.HostsAfter != 1 {
		t.Fatalf("plan: %+v", plan)
	}
	if len(plan.Migrations) != 1 {
		t.Fatalf("migrations: %+v", plan.Migrations)
	}
	if _, err := PlanConsolidation(vms, nodes, ConsolidationRequest{Algorithm: "magic"}, nil); !errors.Is(err, ErrInvalid) {
		t.Fatalf("unknown algorithm: %v", err)
	}
	// Default algorithm is ACO; empty inputs plan nothing without error.
	empty, err := PlanConsolidation(nil, nodes, ConsolidationRequest{}, nil)
	if err != nil || empty.Algorithm != AlgorithmACO || empty.VMs != 0 {
		t.Fatalf("empty plan: %+v %v", empty, err)
	}
}

func TestPlanConsolidationDemandModes(t *testing.T) {
	nodes := []Node{
		{ID: "n1", Power: "on", Capacity: Resources{CPU: 8, MemoryMB: 32768, NetRxMbps: 1000, NetTxMbps: 1000}},
		{ID: "n2", Power: "on", Capacity: Resources{CPU: 8, MemoryMB: 32768, NetRxMbps: 1000, NetTxMbps: 1000}},
	}
	// Each VM reserves more than half a host, so at reservation pricing the
	// pair cannot share; their measured demand is tiny.
	vms := []VM{
		{ID: "a", State: "running", Node: "n1", Requested: Resources{CPU: 5, MemoryMB: 1024}},
		{ID: "b", State: "running", Node: "n2", Requested: Resources{CPU: 5, MemoryMB: 1024}},
	}
	demand := func(vm VM) types.ResourceVector {
		return types.ResourceVector{CPU: 1, Memory: 512}
	}
	plan, err := PlanConsolidation(vms, nodes, ConsolidationRequest{Algorithm: AlgorithmFFD}, demand)
	if err != nil || plan.HostsAfter != 2 {
		t.Fatalf("requested pricing should keep 2 hosts: %+v %v", plan, err)
	}
	plan, err = PlanConsolidation(vms, nodes, ConsolidationRequest{Algorithm: AlgorithmFFD, Demand: DemandP95}, demand)
	if err != nil || plan.HostsAfter != 1 {
		t.Fatalf("p95 pricing should pack onto 1 host: %+v %v", plan, err)
	}
	if _, err := PlanConsolidation(vms, nodes, ConsolidationRequest{Demand: "peak"}, demand); !errors.Is(err, ErrInvalid) {
		t.Fatalf("unknown demand mode: %v", err)
	}
	if _, err := PlanConsolidation(vms, nodes, ConsolidationRequest{Demand: DemandP95}, nil); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("p95 without a pricing source: %v", err)
	}
}

func TestRunExperimentErrors(t *testing.T) {
	if _, err := RunExperiment(context.Background(), "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown id: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunExperiment(ctx, "e1"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: %v", err)
	}
}

func TestQueryHubSeries(t *testing.T) {
	h := telemetry.NewHub(telemetry.Options{})
	for i := 0; i < 60; i++ {
		h.Record("node/n1", "util", time.Duration(i)*time.Second, float64(i%10)/10)
	}

	// Raw window with pagination.
	data, err := QueryHubSeries(h, SeriesQuery{Entity: "node/n1", Metric: "util", Limit: 25})
	if err != nil || data.Total != 60 || len(data.Points) != 25 || data.NextOffset != 25 {
		t.Fatalf("paged raw query: %+v %v", data, err)
	}
	next, err := QueryHubSeries(h, SeriesQuery{Entity: "node/n1", Metric: "util", Limit: 25, Offset: data.NextOffset})
	if err != nil || next.Points[0].AtNs != int64(25*time.Second) {
		t.Fatalf("second page: %+v %v", next, err)
	}

	// Windowed + downsampled.
	ds, err := QueryHubSeries(h, SeriesQuery{
		Entity: "node/n1", Metric: "util",
		FromNs: int64(10 * time.Second), ToNs: int64(49 * time.Second),
		Agg: "max", StepNs: int64(10 * time.Second),
	})
	if err != nil || ds.Total != 4 {
		t.Fatalf("downsampled: %+v %v", ds, err)
	}
	for _, p := range ds.Points {
		if p.Value != 0.9 {
			t.Fatalf("each 10s bucket contains a 0.9 peak: %+v", ds.Points)
		}
	}

	// Validation.
	for _, bad := range []SeriesQuery{
		{Metric: "util"},
		{Entity: "node/n1"},
		{Entity: "node/n1", Metric: "util", Agg: "median"},
		{Entity: "node/n1", Metric: "util", StepNs: 5},
		{Entity: "node/n1", Metric: "util", FromNs: -1},
		{Entity: "node/n1", Metric: "util", FromNs: 10, ToNs: 5},
	} {
		if _, err := QueryHubSeries(h, bad); !errors.Is(err, ErrInvalid) {
			t.Fatalf("query %+v: %v", bad, err)
		}
	}
}

func TestListHubSeriesAndWatchHub(t *testing.T) {
	h := telemetry.NewHub(telemetry.Options{})
	h.Record("node/n1", "util", 0, 1)
	h.Record("gm/g1", "vms", 0, 2)
	keys := ListHubSeries(h)
	if len(keys) != 2 || keys[0] != (SeriesKey{Entity: "gm/g1", Metric: "vms"}) {
		t.Fatalf("keys: %+v", keys)
	}

	h.Emit("vm.state", "vm/a", time.Second, telemetry.A("state", "placed"))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stream := WatchHub(ctx, h, 0)
	select {
	case ev := <-stream.Events():
		if ev.Seq != 1 || ev.Type != "vm.state" || ev.AtNs != int64(time.Second) {
			t.Fatalf("replayed event: %+v", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("no replay")
	}
	live := h.Emit("node.overload", "node/n1", 2*time.Second, telemetry.Attrs{})
	select {
	case ev := <-stream.Events():
		if ev.Seq != live.Seq {
			t.Fatalf("live event: %+v", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("no live delivery")
	}
	stream.Close()
	select {
	case _, ok := <-stream.Events():
		if ok {
			t.Fatal("stream still delivering after Close")
		}
	case <-time.After(time.Second):
		t.Fatal("channel not closed after Close")
	}
	if stream.Err() != nil {
		t.Fatalf("clean close reports error: %v", stream.Err())
	}
}
