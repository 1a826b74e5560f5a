package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"snooze/internal/telemetry/sketch"
)

func TestCounters(t *testing.T) {
	r := NewRegistry()
	if r.Count("x") != 0 {
		t.Fatal("zero default")
	}
	r.Inc("x", 2)
	r.Inc("x", 3)
	if r.Count("x") != 5 {
		t.Fatalf("count: %d", r.Count("x"))
	}
}

func TestSeriesAndNames(t *testing.T) {
	r := NewRegistry()
	r.Observe("lat", 1)
	r.Observe("lat", 2)
	r.ObserveDuration("dur", 3*time.Millisecond)
	r.Inc("c", 1)
	if got := r.Summarize("lat"); got.N != 2 || got.Min != 1 || got.Max != 2 || got.Mean != 1.5 {
		t.Fatalf("series summary: %+v", got)
	}
	// Durations are recorded in seconds.
	if d, ok := r.Histogram("dur"); !ok || d.Count != 1 || d.Sum != 0.003 {
		t.Fatalf("duration series: %+v ok=%v", d, ok)
	}
	names := r.Names()
	if len(names) != 3 || names[0] != "c" || names[1] != "dur" || names[2] != "lat" {
		t.Fatalf("names: %v", names)
	}
	// Non-finite samples are dropped, not counted.
	r.Observe("lat", math.NaN())
	r.Observe("lat", math.Inf(1))
	if got := r.Summarize("lat"); got.N != 2 || got.Max != 2 {
		t.Fatalf("non-finite samples observed: %+v", got)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.P50 != 3 {
		t.Fatalf("summary: %+v", s)
	}
	if math.Abs(s.Stddev-math.Sqrt(2)) > 1e-9 {
		t.Fatalf("stddev: %v", s.Stddev)
	}
	if s.P95 < s.P50 || s.P99 < s.P95 || s.P99 > s.Max {
		t.Fatalf("quantile ordering: %+v", s)
	}
	if got := Summarize(nil); got.N != 0 || got.Mean != 0 {
		t.Fatalf("empty summary: %+v", got)
	}
	one := Summarize([]float64{7})
	if one.P50 != 7 || one.P99 != 7 || one.Stddev != 0 {
		t.Fatalf("single-sample summary: %+v", one)
	}
}

func TestRegistrySummarize(t *testing.T) {
	r := NewRegistry()
	for i := 1; i <= 100; i++ {
		r.Observe("v", float64(i))
	}
	s := r.Summarize("v")
	if s.N != 100 || math.Abs(s.Mean-50.5) > 1e-9 {
		t.Fatalf("summary: %+v", s)
	}
	if math.Abs(s.P95-95.05) > 0.5 {
		t.Fatalf("p95: %v", s.P95)
	}
}

func TestConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Inc("c", 1)
				r.Observe("s", float64(j))
			}
		}()
	}
	wg.Wait()
	if r.Count("c") != 8000 {
		t.Fatalf("count: %d", r.Count("c"))
	}
	h, ok := r.Histogram("s")
	if !ok || h.Count != 8000 {
		t.Fatalf("histogram count: %+v ok=%v", h, ok)
	}
	if got := r.Summarize("s"); got.N != 8000 || got.Min != 0 || got.Max != 999 {
		t.Fatalf("summary: %+v", got)
	}
}

// TestHistogramBounded pins the snapshot layout and that a warm series
// takes every further observation without allocating: memory follows the
// value range, not the number of observations.
func TestHistogramBounded(t *testing.T) {
	r := NewRegistry()
	const n = 1536
	for i := 0; i < n; i++ {
		r.Observe("h", float64(i))
	}
	if allocs := testing.AllocsPerRun(1000, func() { r.Observe("h", 700) }); allocs != 0 {
		t.Fatalf("warm Observe allocates %v times per call", allocs)
	}
	h, ok := r.Histogram("h")
	if !ok {
		t.Fatal("missing histogram")
	}
	if h.Count != n+1001 || h.Min != 0 || h.Max != n-1 {
		t.Fatalf("snapshot: %+v", h)
	}
	var total int64
	for _, c := range h.Counts {
		total += c
	}
	if total != h.Count {
		t.Fatalf("bucket counts sum %d, want %d", total, h.Count)
	}
	if len(h.Counts) != len(h.Bounds)+1 {
		t.Fatalf("bucket layout: %d counts for %d bounds", len(h.Counts), len(h.Bounds))
	}
	// 0 lands in the first bucket (le 1e-6); huge values overflow to +Inf.
	if h.Counts[0] != 1 {
		t.Fatalf("zero bucket: %+v", h.Counts)
	}
	r.Observe("inf", 1e12)
	hi, _ := r.Histogram("inf")
	if hi.Counts[len(hi.Counts)-1] != 1 {
		t.Fatalf("overflow bucket: %+v", hi.Counts)
	}
	if _, ok := r.Histogram("missing"); ok {
		t.Fatal("missing series should not have a histogram")
	}
}

// A registry summary covers the series' whole lifetime: a burst of small
// values after a long run of large ones must not pull the median down.
func TestRegistrySummarizeLifetime(t *testing.T) {
	r := NewRegistry()
	var all []float64
	for i := 0; i < 10000; i++ {
		r.Observe("lat", 100)
		all = append(all, 100)
	}
	for i := 0; i < 600; i++ {
		r.Observe("lat", 1)
		all = append(all, 1)
	}
	got, want := r.Summarize("lat"), Summarize(all)
	h, _ := r.Histogram("lat")
	if got.N != 10600 || int64(got.N) != h.Count {
		t.Fatalf("N %d, histogram count %d, want 10600", got.N, h.Count)
	}
	if math.Abs(got.P50-want.P50) > sketch.DefaultAlpha*want.P50 {
		t.Fatalf("p50 %v, want within %v of %v", got.P50, sketch.DefaultAlpha, want.P50)
	}
}

// TestRegistryMatchesExactSummarize checks the sketch-backed registry against
// the exact reference on random inputs: exact count and extremes, quantiles
// within sketch.DefaultAlpha of the exact ones, and bucket counts that put
// every value in its exact bucket.
func TestRegistryMatchesExactSummarize(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// nearBound reports whether v is within alpha of a bucket bound, where
	// the sketch representative may fall on the bound's other side.
	nearBound := func(v float64) bool {
		for _, b := range DefaultBuckets {
			if math.Abs(v-b) <= sketch.DefaultAlpha*b {
				return true
			}
		}
		return false
	}
	for trial := 0; trial < 30; trial++ {
		r := NewRegistry()
		n := 1 + rng.Intn(3000)
		if trial%3 == 0 {
			n = 1 + rng.Intn(5) // interpolation between few, far-apart samples
		}
		vals := make([]float64, 0, n)
		for len(vals) < n {
			var v float64
			switch rng.Intn(3) {
			case 0:
				v = math.Exp(rng.Float64()*20 - 12) // durations in seconds, µs to minutes
			case 1:
				v = float64(rng.Intn(8)) // probe depths
			default:
				v = rng.Float64()
			}
			if nearBound(v) {
				continue
			}
			vals = append(vals, v)
			r.Observe("x", v)
		}
		got, want := r.Summarize("x"), Summarize(vals)
		if got.N != want.N || got.Min != want.Min || got.Max != want.Max {
			t.Fatalf("trial %d: summary %+v, want %+v", trial, got, want)
		}
		if math.Abs(got.Mean-want.Mean) > 1e-9*want.Mean || math.Abs(got.Stddev-want.Stddev) > 1e-6*want.Stddev+1e-12 {
			t.Fatalf("trial %d: mean/stddev %v/%v, want %v/%v", trial, got.Mean, got.Stddev, want.Mean, want.Stddev)
		}
		for _, q := range [][2]float64{{got.P50, want.P50}, {got.P95, want.P95}, {got.P99, want.P99}} {
			if math.Abs(q[0]-q[1]) > sketch.DefaultAlpha*q[1]+1e-9 {
				t.Fatalf("trial %d: quantile %v, want within %v of %v (got %+v, want %+v)", trial, q[0], sketch.DefaultAlpha, q[1], got, want)
			}
		}
		h, _ := r.Histogram("x")
		exact := make([]int64, len(DefaultBuckets)+1)
		for _, v := range vals {
			exact[sort.SearchFloat64s(DefaultBuckets, v)]++
		}
		if !reflect.DeepEqual(h.Counts, exact) {
			t.Fatalf("trial %d: bucket counts %v, want %v", trial, h.Counts, exact)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "hosts", "util")
	tb.AddRow("aco", 42, 0.87654)
	tb.AddRow("ffd-cpu", 44, float32(0.8))
	tb.AddRow("exact", 41, 5*time.Millisecond)
	out := tb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines: %d\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "name") || !strings.Contains(lines[0], "util") {
		t.Fatalf("header: %q", lines[0])
	}
	if !strings.Contains(out, "0.88") {
		t.Fatalf("float formatting missing: %s", out)
	}
	if !strings.Contains(out, "5ms") {
		t.Fatalf("duration formatting missing: %s", out)
	}
	// Column alignment: every line has the same prefix width for column 2.
	if !strings.Contains(lines[1], "----") {
		t.Fatalf("separator: %q", lines[1])
	}
}
