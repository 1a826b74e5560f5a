package telemetry

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"snooze/internal/types"
)

// fillSeries appends n samples to (entity, metric) at step intervals and
// returns every sample appended — the brute-force reference history.
func fillSeries(s *Store, entity, metric string, n int, step time.Duration) []Sample {
	ref := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		at := time.Duration(i) * step
		v := float64(i%17) + 0.25
		s.Append(entity, metric, at, v)
		ref = append(ref, Sample{At: at, Value: v})
	}
	return ref
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	cfg := StoreConfig{
		SeriesCapacity: 16,
		Tiers:          []TierConfig{{Step: 10 * time.Second, Capacity: 4}, {Step: time.Minute, Capacity: 4}},
	}
	src := NewStore(cfg)
	keys := []Key{
		{Entity: "node/n1", Metric: "util"},
		{Entity: "node/n1", Metric: "cpu.used"},
		{Entity: "node/n2", Metric: "util"},
	}
	refs := map[Key][]Sample{}
	for i, k := range keys {
		// Enough samples to wrap the raw ring and cascade through both tiers.
		refs[k] = fillSeries(src, k.Entity, k.Metric, 200+10*i, time.Second)
	}

	snap := src.Snapshot(nil)
	if len(snap.Series) != len(keys) {
		t.Fatalf("snapshot has %d series, want %d", len(snap.Series), len(keys))
	}

	dst := NewStore(cfg)
	dst.Append("node/n9", "util", 0, 0.5)
	issued := dst.Generation("node/n9", "util")
	if got := dst.Restore(snap); got != len(keys) {
		t.Fatalf("Restore adopted %d series, want %d", got, len(keys))
	}
	gens := map[uint64]bool{issued: true}

	horizon := 400 * time.Second
	for _, k := range keys {
		// Stitched queries over the full range must agree exactly.
		want := src.Query(k.Entity, k.Metric, 0, horizon)
		got := dst.Query(k.Entity, k.Metric, 0, horizon)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: restored Query mismatch:\n got %v\nwant %v", k, got, want)
		}
		// The raw window must equal the brute-force reference tail.
		ref := refs[k]
		rawRef := ref[len(ref)-cfg.SeriesCapacity:]
		var raw []Sample
		dst.Window(k.Entity, k.Metric, 0, horizon, func(seg []Sample) {
			raw = append(raw, seg...)
		})
		if !reflect.DeepEqual(raw, rawRef) {
			t.Fatalf("%v: restored raw window mismatch:\n got %v\nwant %v", k, raw, rawRef)
		}
		// Watermarks and retention metadata survive. The generation is the
		// destination's own: unique, and above every one it had issued.
		wantInfo, _ := src.Info(k.Entity, k.Metric)
		gotInfo, ok := dst.Info(k.Entity, k.Metric)
		if g := gotInfo.Gen; g <= issued || gens[g] {
			t.Fatalf("%v: restored generation %d repeats one issued (%v) or is not above %d", k, g, gens, issued)
		}
		gens[gotInfo.Gen] = true
		gotInfo.Gen, wantInfo.Gen = 0, 0
		if !ok || !reflect.DeepEqual(gotInfo, wantInfo) {
			t.Fatalf("%v: restored Info mismatch:\n got %+v\nwant %+v", k, gotInfo, wantInfo)
		}
	}
}

func TestRestoreKeepsFresherLocalSeries(t *testing.T) {
	src := NewStore(StoreConfig{SeriesCapacity: 8, Tiers: NoTiers})
	fillSeries(src, "node/n1", "util", 5, time.Second)
	snap := src.Snapshot(nil)

	dst := NewStore(StoreConfig{SeriesCapacity: 8, Tiers: NoTiers})
	dst.Append("node/n1", "util", 10*time.Second, 0.9) // newer than the snapshot
	if got := dst.Restore(snap); got != 0 {
		t.Fatalf("Restore adopted %d series over fresher local data, want 0", got)
	}
	if n := dst.Len("node/n1", "util"); n != 1 {
		t.Fatalf("local series was replaced: len %d, want 1", n)
	}
}

func TestRestoreAdvancesGenerations(t *testing.T) {
	src := NewStore(StoreConfig{SeriesCapacity: 8, Tiers: NoTiers})
	fillSeries(src, "node/n1", "util", 6, time.Second)
	snap := src.Snapshot(nil)

	dst := NewStore(StoreConfig{SeriesCapacity: 8, Tiers: NoTiers})
	dst.Restore(snap)
	restoredGen := dst.Generation("node/n1", "util")
	dst.Append("node/n2", "util", time.Second, 0.5)
	if g := dst.Generation("node/n2", "util"); g <= restoredGen {
		t.Fatalf("post-restore append generation %d not above restored generation %d", g, restoredGen)
	}
}

// A forged wire generation near the top of the range must not steer the
// destination's counter: the restored series and every later append still
// get generations that are non-zero and never issued before.
func TestRestoreIgnoresForgedGeneration(t *testing.T) {
	src := NewStore(StoreConfig{SeriesCapacity: 8, Tiers: NoTiers})
	fillSeries(src, "node/n1", "util", 4, time.Second)
	snap := src.Snapshot(nil)
	snap.Series[0].Gen = math.MaxUint64

	dst := NewStore(StoreConfig{SeriesCapacity: 8, Tiers: NoTiers})
	dst.Append("node/n0", "util", time.Second, 0.5)
	seen := map[uint64]bool{dst.Generation("node/n0", "util"): true}
	dst.Restore(snap)
	if g := dst.Generation("node/n1", "util"); g == math.MaxUint64 || seen[g] {
		t.Fatalf("restored generation %d adopted the forged one or repeats %v", g, seen)
	} else {
		seen[g] = true
	}
	for i, ent := range []string{"node/n2", "node/n3"} {
		dst.Append(ent, "util", time.Duration(i+2)*time.Second, 0.5)
		g := dst.Generation(ent, "util")
		if g == 0 || seen[g] {
			t.Fatalf("append after restore got generation %d (issued: %v)", g, seen)
		}
		seen[g] = true
	}
}

func TestJournalImportIdempotent(t *testing.T) {
	src := NewJournal(32)
	for i := 0; i < 10; i++ {
		src.Publish(Event{At: time.Duration(i) * time.Second, Type: "vm.state", Entity: fmt.Sprintf("vm/v%d", i)})
	}
	segment := src.Replay(1, 0)

	dst := NewJournal(32)
	if got := dst.Import(segment); got != 10 {
		t.Fatalf("first Import adopted %d, want 10", got)
	}
	if got := dst.Import(segment); got != 0 {
		t.Fatalf("second Import adopted %d, want 0 (idempotence)", got)
	}
	if got, want := dst.Replay(1, 0), segment; !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after import mismatch:\n got %v\nwant %v", got, want)
	}
	if got, want := dst.LastSeq(), src.LastSeq(); got != want {
		t.Fatalf("LastSeq %d, want %d", got, want)
	}
	// New publishes continue past the imported tail.
	ev := dst.Publish(Event{Type: "node.normal"})
	if ev.Seq != src.LastSeq()+1 {
		t.Fatalf("post-import publish got seq %d, want %d", ev.Seq, src.LastSeq()+1)
	}
}

func TestJournalImportSkipsOverlap(t *testing.T) {
	src := NewJournal(32)
	for i := 0; i < 8; i++ {
		src.Publish(Event{Type: "vm.state"})
	}
	dst := NewJournal(32)
	dst.Import(src.Replay(1, 5)) // seqs 1..5
	if got := dst.Import(src.Replay(3, 0)); got != 3 {
		t.Fatalf("overlapping Import adopted %d, want 3 (seqs 6..8)", got)
	}
	if got := dst.LastSeq(); got != 8 {
		t.Fatalf("LastSeq %d, want 8", got)
	}
}

func TestDetectorExportImport(t *testing.T) {
	node := func(util float64, vms int) types.NodeStatus {
		st := types.NodeStatus{
			Spec:  types.NodeSpec{ID: "n1", Capacity: types.RV(10, 1000, 100, 100)},
			Power: types.PowerOn,
			Used:  types.RV(util*10, 0, 0, 0),
		}
		for i := 0; i < vms; i++ {
			st.VMs = append(st.VMs, types.VMID(fmt.Sprintf("v%d", i)))
		}
		return st
	}
	src := NewDetector(Thresholds{Overload: 0.9, Underload: 0.2, Repeat: 15 * time.Second})
	if _, fired := src.Observe("node/n1", time.Second, node(0.95, 2)); !fired {
		t.Fatal("overload crossing did not fire")
	}

	entries := src.Export(nil)
	if len(entries) != 1 || entries[0].Condition != "overload" || !entries[0].Announced {
		t.Fatalf("unexpected export: %+v", entries)
	}

	dst := NewDetector(Thresholds{Overload: 0.9, Underload: 0.2, Repeat: 15 * time.Second})
	if got := dst.Import(entries); got != 1 {
		t.Fatalf("Import adopted %d, want 1", got)
	}
	if c := dst.Condition("node/n1"); c != "overload" {
		t.Fatalf("imported condition %q, want overload", c)
	}
	// A persisting overload inside the Repeat cooldown must NOT re-fire on
	// the successor — the imported lastAnomaly re-arms the suppression.
	if _, fired := dst.Observe("node/n1", 5*time.Second, node(0.95, 2)); fired {
		t.Fatal("imported cooldown did not suppress re-emission")
	}
	// The recovery pairs with the imported announced flag.
	ev, fired := dst.Observe("node/n1", 6*time.Second, node(0.5, 2))
	if !fired || ev.Type != EventNodeNormal {
		t.Fatalf("recovery after import: fired=%v type=%q, want node.normal", fired, ev.Type)
	}
	// Live local state wins over a second import.
	if got := dst.Import(entries); got != 0 {
		t.Fatalf("re-Import adopted %d, want 0", got)
	}
}

func TestHubSnapshotOwnerFiltered(t *testing.T) {
	h := NewHub(Options{Store: StoreConfig{SeriesCapacity: 8, Tiers: NoTiers}})
	now := 30 * time.Second
	h.Record("node/a1", "util", now, 0.4)
	h.Record("node/b1", "util", now, 0.5)
	h.Record("gm/gm-a", "util", now, 0.3)
	h.Record("gm/gm-b", "util", now, 0.6)
	h.Claim("node/a1", "gm-a")
	h.Claim("node/b1", "gm-b")
	h.Emit("node.overload", "node/a1", now, Attrs{})

	snap := h.Snapshot(now, "gm-a")
	var entities []string
	for _, ss := range snap.Store.Series {
		entities = append(entities, ss.Entity)
	}
	want := []string{"gm/gm-a", "node/a1"}
	if !reflect.DeepEqual(entities, want) {
		t.Fatalf("owner-filtered snapshot entities %v, want %v", entities, want)
	}
	if _, ok := snap.Owners["node/b1"]; ok {
		t.Fatal("foreign owner stamp leaked into the snapshot")
	}
	if snap.BaseSeq != h.Journal().LastSeq() {
		t.Fatalf("BaseSeq %d, want journal LastSeq %d", snap.BaseSeq, h.Journal().LastSeq())
	}

	// Restore into a fresh hub: series, owner stamp and journal tail arrive.
	tail := h.Journal().Replay(snap.BaseSeq, 0)
	dst := NewHub(Options{Store: StoreConfig{SeriesCapacity: 8, Tiers: NoTiers}})
	adopted, imported := dst.Restore(snap, tail)
	if adopted != 2 || imported != len(tail) {
		t.Fatalf("Restore adopted %d series / %d events, want 2 / %d", adopted, imported, len(tail))
	}
	if owner, ok := dst.Owner("node/a1"); !ok || owner != "gm-a" {
		t.Fatalf("restored owner = %q, %v; want gm-a, true", owner, ok)
	}
}

func TestValidSample(t *testing.T) {
	for _, tc := range []struct {
		v  float64
		ok bool
	}{
		{0, true}, {0.5, true}, {1e9, true},
		{-0.001, false}, {math.NaN(), false}, {math.Inf(1), false}, {math.Inf(-1), false},
	} {
		if got := ValidSample(tc.v); got != tc.ok {
			t.Errorf("ValidSample(%v) = %v, want %v", tc.v, got, tc.ok)
		}
	}
}

// BenchmarkSnapshotRestore measures a full snapshot+restore cycle of a
// 64-node fleet's worth of series — the cost of one GM state-sync push plus
// the successor's bootstrap.
func BenchmarkSnapshotRestore(b *testing.B) {
	src := NewStore(StoreConfig{SeriesCapacity: 512})
	for n := 0; n < 64; n++ {
		entity := fmt.Sprintf("node/n%02d", n)
		for i := 0; i < 512; i++ {
			src.Append(entity, "util", time.Duration(i)*time.Second, float64(i%10)/10)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := src.Snapshot(nil)
		dst := NewStore(StoreConfig{SeriesCapacity: 512})
		dst.Restore(snap)
	}
}

// BenchmarkJournalReplay measures replaying a full journal segment into a
// fresh journal — the bootstrap's tail-replay step.
func BenchmarkJournalReplay(b *testing.B) {
	src := NewJournal(1024)
	for i := 0; i < 1024; i++ {
		src.Publish(Event{At: time.Duration(i) * time.Millisecond, Type: EventVMState, Entity: "vm/v1"})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		segment := src.Replay(1, 0)
		dst := NewJournal(1024)
		dst.Import(segment)
	}
}
