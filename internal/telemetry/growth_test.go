package telemetry

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// eagerSeries pre-creates (entity, metric) in s with its raw ring allocated
// at full capacity up front — the fixed-ring layout a growing ring must be
// indistinguishable from.
func eagerSeries(s *Store, entity, metric string) {
	ser := s.newSeries(nil)
	ser.buf = make([]Sample, ser.capacity)
	sh := s.shardFor(entity, metric)
	sh.mu.Lock()
	sh.series[Key{Entity: entity, Metric: metric}] = ser
	sh.mu.Unlock()
}

func rawWindow(s *Store, entity, metric string, from, to time.Duration) []Sample {
	var out []Sample
	s.Window(entity, metric, from, to, func(seg []Sample) { out = append(out, seg...) })
	return out
}

// Random appends into a growing ring give the same reads as the same appends
// into an eagerly allocated one: before, across and after every doubling and
// far past the first wrap.
func TestGrowingRingMatchesEagerRing(t *testing.T) {
	const capacity = 512
	rng := rand.New(rand.NewSource(5))
	cfg := StoreConfig{SeriesCapacity: capacity, Tiers: []TierConfig{{Step: 10 * time.Second, Capacity: 64}, {Step: time.Minute, Capacity: 64}}}
	for trial := 0; trial < 4; trial++ {
		grown, eager := NewStore(cfg), NewStore(cfg)
		eagerSeries(eager, "vm/a", "util")
		spec := &SummarySpec{Percentiles: []float64{50, 95}, Trend: true}
		specE := &SummarySpec{Percentiles: []float64{50, 95}, Trend: true}
		exact := &SummarySpec{Percentiles: []float64{50, 95}, Trend: true, Exact: true}
		exactE := &SummarySpec{Percentiles: []float64{50, 95}, Trend: true, Exact: true}
		at := time.Duration(0)
		n := 3*capacity + rng.Intn(capacity)
		for i := 1; i <= n; i++ {
			at += time.Duration(1+rng.Intn(3000)) * time.Millisecond
			v := rng.Float64()
			if rng.Intn(10) == 0 {
				v = 0
			}
			grown.Append("vm/a", "util", at, v)
			eager.Append("vm/a", "util", at, v)
			// Check at every power of two around a doubling, at the wrap,
			// and at random points in between.
			if i&(i-1) != 0 && i != capacity+1 && rng.Intn(40) != 0 {
				continue
			}
			ctx := fmt.Sprintf("trial %d, %d appends", trial, i)
			from := time.Duration(rng.Int63n(int64(at) + 1))
			windows := [][2]time.Duration{{0, 0}, {from, at}, {from, from + 30*time.Second}, {at - 5*time.Second, at}}
			for _, w := range windows {
				if g, e := grown.Query("vm/a", "util", w[0], w[1]), eager.Query("vm/a", "util", w[0], w[1]); !reflect.DeepEqual(g, e) {
					t.Fatalf("%s: Query%v: grown %v, eager %v", ctx, w, g, e)
				}
				if g, e := rawWindow(grown, "vm/a", "util", w[0], w[1]), rawWindow(eager, "vm/a", "util", w[0], w[1]); !reflect.DeepEqual(g, e) {
					t.Fatalf("%s: Window%v: grown %v, eager %v", ctx, w, g, e)
				}
				g, gok := grown.Reduce("vm/a", "util", w[0], w[1], spec)
				e, eok := eager.Reduce("vm/a", "util", w[0], w[1], specE)
				if gok != eok || !reflect.DeepEqual(g, e) {
					t.Fatalf("%s: Reduce%v: grown %+v, eager %+v", ctx, w, g, e)
				}
				g, gok = grown.Reduce("vm/a", "util", w[0], w[1], exact)
				e, eok = eager.Reduce("vm/a", "util", w[0], w[1], exactE)
				if gok != eok || !reflect.DeepEqual(g, e) {
					t.Fatalf("%s: exact Reduce%v: grown %+v, eager %+v", ctx, w, g, e)
				}
			}
			gi, _ := grown.Info("vm/a", "util")
			ei, _ := eager.Info("vm/a", "util")
			if !reflect.DeepEqual(gi, ei) {
				t.Fatalf("%s: Info: grown %+v, eager %+v", ctx, gi, ei)
			}
			if gs, es := grown.Snapshot(nil), eager.Snapshot(nil); !reflect.DeepEqual(gs, es) {
				t.Fatalf("%s: Snapshot differs", ctx)
			}
		}
	}
}

// The ring doubles from 8 slots up to its capacity, then stops growing.
func TestRawRingGrowsByDoubling(t *testing.T) {
	s := NewStore(StoreConfig{SeriesCapacity: 100})
	var sizes []int
	for i := 0; i < 300; i++ {
		s.Append("vm/a", "util", time.Duration(i)*time.Second, 1)
		ser := s.shardFor("vm/a", "util").series[Key{Entity: "vm/a", Metric: "util"}]
		if n := len(ser.buf); len(sizes) == 0 || sizes[len(sizes)-1] != n {
			sizes = append(sizes, n)
		}
		if info, _ := s.Info("vm/a", "util"); info.RawCapacity != 100 {
			t.Fatalf("append %d: Info.RawCapacity %d, want the configured 100", i, info.RawCapacity)
		}
	}
	if want := []int{8, 16, 32, 64, 100}; !reflect.DeepEqual(sizes, want) {
		t.Fatalf("ring sizes %v, want %v", sizes, want)
	}
}

// A snapshot's RawCapacity comes off the wire: a forged one must neither
// size the ring nor crash the receiver, and samples beyond the store's own
// capacity fold into the eviction watermark. Forged tier ladders are refused.
func TestRestoreIgnoresWireCapacity(t *testing.T) {
	s := NewStore(StoreConfig{SeriesCapacity: 16})
	samples := make([]Sample, 40)
	for i := range samples {
		samples[i] = Sample{At: time.Duration(i+1) * time.Second, Value: float64(i)}
	}
	snap := StoreSnapshot{Series: []SeriesSnapshot{
		{Entity: "vm/forged", Metric: "util", RawCapacity: 1 << 40, Samples: samples[:3], Gen: 3},
		{Entity: "vm/surplus", Metric: "util", RawCapacity: 64, Samples: samples, Gen: 40, Evicted: 2},
		{Entity: "vm/tiers", Metric: "util", RawCapacity: 16, Samples: samples[:1], Gen: 1, Tiers: []TierSnapshot{
			{Step: time.Minute, Capacity: 1 << 40, Buckets: []BucketSnapshot{{At: 0, Min: 1, Max: 1, Sum: 1, Count: 1}}},
		}},
		{Entity: "vm/zerostep", Metric: "util", RawCapacity: 16, Samples: samples[:1], Gen: 1, Tiers: []TierSnapshot{
			{Step: 0, Capacity: 4, Pending: BucketSnapshot{At: 0, Min: 1, Max: 1, Sum: 1, Count: 1}},
		}},
	}}
	if got := s.Restore(snap); got != 4 {
		t.Fatalf("restored %d series, want 4", got)
	}
	info, ok := s.Info("vm/forged", "util")
	if !ok || info.RawCapacity != 16 || info.RawPoints != 3 {
		t.Fatalf("forged capacity: Info %+v, want RawCapacity 16 and 3 points", info)
	}
	info, _ = s.Info("vm/surplus", "util")
	if info.RawCapacity != 16 || info.RawPoints != 16 || info.Evicted != 2+24 || info.RawFrom != samples[24].At {
		t.Fatalf("surplus samples: Info %+v, want the newest 16 kept and 26 evicted", info)
	}
	if got := rawWindow(s, "vm/surplus", "util", 0, 0); !reflect.DeepEqual(got, samples[24:]) {
		t.Fatalf("surplus samples: raw window %v, want the newest 16", got)
	}
	spec := &SummarySpec{}
	if sum, _ := s.Reduce("vm/surplus", "util", 0, 0, spec); !sum.Truncated {
		t.Fatal("a window reaching before the kept samples must be Truncated")
	}
	if sum, _ := s.Reduce("vm/surplus", "util", samples[24].At, 0, spec); sum.Truncated || sum.Count != 16 {
		t.Fatalf("window over the kept samples: %+v, want 16 untruncated points", sum)
	}
	// The forged tier ring is capped at the store's largest tier; the
	// zero-step ladder is refused (its next eviction would divide by zero).
	ser := s.shardFor("vm/tiers", "util").series[Key{Entity: "vm/tiers", Metric: "util"}]
	if got := len(ser.tiers[0].buf); got != DefaultTiers()[0].Capacity {
		t.Fatalf("forged tier capacity: ring of %d buckets, want %d", got, DefaultTiers()[0].Capacity)
	}
	for i := 0; i < 40; i++ {
		s.Append("vm/zerostep", "util", time.Duration(i+2)*time.Second, 1)
	}
	if info, _ := s.Info("vm/zerostep", "util"); len(info.Tiers) != len(DefaultTiers()) || info.Tiers[0].Step != time.Minute {
		t.Fatalf("zero-step ladder: tiers %+v, want the store's own ladder", info.Tiers)
	}
}

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// A series costs what it holds. The budgets are the live heap per series of
// a default store (512-slot raw ring, 1m/10m tiers, 1% sketches) measured on
// linux/amd64 with go1.24 — 758 B after 1 sample, 3336 B after 100 — plus
// ~50% margin. An eagerly allocated raw ring costs ~8.9 KB after 1 sample.
func TestSeriesHeapBudget(t *testing.T) {
	const (
		series        = 10000
		budgetOne     = 1200 // bytes per series after 1 sample
		budgetHundred = 5000 // bytes per series after 100 samples
	)
	entities := make([]string, series)
	for i := range entities {
		entities[i] = fmt.Sprintf("vm/v%05d", i)
	}
	s := NewStore(StoreConfig{})
	base := liveHeap()
	fill := func(from, to int) {
		for i := from; i < to; i++ {
			for j, e := range entities {
				s.Append(e, "util", time.Duration(i)*time.Second, 0.2+0.6*math.Abs(math.Sin(float64(i+j))))
			}
		}
	}
	perSeries := func() float64 {
		h := liveHeap()
		if h < base {
			return 0
		}
		return float64(h-base) / series
	}
	fill(0, 1)
	one := perSeries()
	fill(1, 100)
	hundred := perSeries()
	runtime.KeepAlive(s)
	runtime.KeepAlive(entities)
	t.Logf("heap per series: %.0f B after 1 sample, %.0f B after 100", one, hundred)
	if s.NumSeries() != series {
		t.Fatalf("%d series, want %d", s.NumSeries(), series)
	}
	if one > budgetOne {
		t.Errorf("%.0f B per series after 1 sample, budget %d B", one, budgetOne)
	}
	if hundred > budgetHundred {
		t.Errorf("%.0f B per series after 100 samples, budget %d B", hundred, budgetHundred)
	}
}
