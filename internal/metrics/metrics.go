// Package metrics provides the lightweight counters, gauges and
// sketch-backed histograms used to instrument the hierarchy and to print the
// experiment tables in EXPERIMENTS.md. It is safe for concurrent use.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"snooze/internal/telemetry/sketch"
)

// Registry is a named collection of metrics.
type Registry struct {
	mu     sync.Mutex
	counts map[string]int64
	gauges map[string]float64
	hists  map[string]*histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]int64),
		gauges: make(map[string]float64),
		hists:  make(map[string]*histogram),
	}
}

// Inc adds delta to the named counter.
func (r *Registry) Inc(name string, delta int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counts[name] += delta
}

// Count returns the counter's current value.
func (r *Registry) Count(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[name]
}

// SetGauge sets the named gauge to its current value (last write wins).
func (r *Registry) SetGauge(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = v
}

// Gauge returns the gauge's current value and whether it has been set.
func (r *Registry) Gauge(name string) (float64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.gauges[name]
	return v, ok
}

// DefaultBuckets are the Prometheus bucket upper bounds every histogram
// snapshot is rendered onto: an exponential ladder (factor 4 from 1µs) wide
// enough to cover second-unit durations and small counts like probe depths
// in one fixed layout. Values above the last bound land in the implicit +Inf
// overflow bucket.
var DefaultBuckets = func() []float64 {
	bounds := make([]float64, 20)
	b := 1e-6
	for i := range bounds {
		bounds[i] = b
		b *= 4
	}
	return bounds
}()

// histogram is one observed series: a mergeable quantile sketch holding the
// lifetime distribution (count, exact sum and extremes, quantiles within
// sketch.DefaultAlpha) plus the running sum of squares behind Stddev. Its
// memory grows with the logarithm of the value range, never with the number
// of observations.
type histogram struct {
	sk    *sketch.Sketch
	sumsq float64
}

// Observe records a sample into the named series. Non-finite values are
// ignored.
func (r *Registry) Observe(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &histogram{sk: sketch.New(sketch.DefaultAlpha)}
		r.hists[name] = h
	}
	h.sk.Insert(v)
	h.sumsq += v * v
}

// ObserveDuration records a duration sample in seconds.
func (r *Registry) ObserveDuration(name string, d time.Duration) {
	r.Observe(name, d.Seconds())
}

// HistogramSnapshot is a point-in-time copy of one observed series'
// distribution, laid out on DefaultBuckets.
type HistogramSnapshot struct {
	// Count and Sum cover every observation ever made.
	Count int64
	Sum   float64
	// Min and Max are lifetime extremes.
	Min, Max float64
	// Bounds are the bucket upper bounds (le semantics, DefaultBuckets).
	Bounds []float64
	// Counts are per-bucket observation counts, len(Bounds)+1: Counts[i]
	// holds observations v <= Bounds[i] (and > Bounds[i-1]); the final
	// entry is the +Inf overflow bucket. They are taken from the sketch, so
	// a value within sketch.DefaultAlpha of a bound may be counted on
	// either side of it.
	Counts []int64
}

// Histogram returns the named series' histogram snapshot.
func (r *Registry) Histogram(name string) (HistogramSnapshot, bool) {
	_, h, ok := r.Distribution(name)
	return h, ok
}

// Distribution returns the named series' Summary and histogram snapshot,
// both taken from the same state, so Summary.N always equals
// HistogramSnapshot.Count.
func (r *Registry) Distribution(name string) (Summary, HistogramSnapshot, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		return Summary{}, HistogramSnapshot{}, false
	}
	sk := h.sk
	counts := make([]int64, len(DefaultBuckets)+1)
	sk.Buckets(func(v float64, n uint64) {
		counts[sort.SearchFloat64s(DefaultBuckets, v)] += int64(n) // first bound >= v: the le bucket
	})
	snap := HistogramSnapshot{
		Count:  int64(sk.Count()),
		Sum:    sk.Sum(),
		Min:    sk.Min(),
		Max:    sk.Max(),
		Bounds: DefaultBuckets,
		Counts: counts,
	}
	return Summary{
		N:      int(sk.Count()),
		Mean:   sk.Avg(),
		Min:    sk.Min(),
		Max:    sk.Max(),
		P50:    sketchQuantile(sk, 0.50),
		P95:    sketchQuantile(sk, 0.95),
		P99:    sketchQuantile(sk, 0.99),
		Stddev: stddev(float64(sk.Count()), sk.Sum(), h.sumsq),
	}, snap, true
}

// sketchQuantile answers quantile q in [0, 1] with the exact reference's
// convention: it interpolates between the sketch's estimates of the two
// order statistics around rank q*(n-1). Each estimate is within
// sketch.DefaultAlpha of its order statistic, so for non-negative samples
// the result is within it of what Summarize reports for the same samples.
func sketchQuantile(sk *sketch.Sketch, q float64) float64 {
	last := float64(sk.Count() - 1)
	if last == 0 {
		return sk.Quantile(0)
	}
	// The sketch answers for the order statistic whose index is the floor of
	// its rank; asking half a rank above an integer rank keeps float
	// rounding from slipping to the one below.
	at := func(i float64) float64 { return sk.Quantile(100 * (i + 0.5) / last) }
	rank := q * last
	lo, hi := math.Floor(rank), math.Ceil(rank)
	if lo == hi {
		return at(lo)
	}
	frac := rank - lo
	return at(lo)*(1-frac) + at(hi)*frac
}

// Names returns all metric names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := map[string]struct{}{}
	for n := range r.counts {
		seen[n] = struct{}{}
	}
	for n := range r.gauges {
		seen[n] = struct{}{}
	}
	for n := range r.hists {
		seen[n] = struct{}{}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Summary describes a series statistically.
type Summary struct {
	N              int
	Mean, Min, Max float64
	P50, P95, P99  float64
	Stddev         float64
}

// Summarize describes the named series over its lifetime: N, Mean, Min and
// Max are exact, the percentiles come from the sketch, within
// sketch.DefaultAlpha of the exact Summarize of every sample observed.
func (r *Registry) Summarize(name string) Summary {
	sum, _, _ := r.Distribution(name)
	return sum
}

// Summarize computes exact summary statistics for the samples; it is the
// reference the registry's sketch-backed Summarize approximates.
func Summarize(samples []float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	var sum, sumsq float64
	for _, v := range s {
		sum += v
		sumsq += v * v
	}
	n := float64(len(s))
	return Summary{
		N:      len(s),
		Mean:   sum / n,
		Min:    s[0],
		Max:    s[len(s)-1],
		P50:    quantile(s, 0.50),
		P95:    quantile(s, 0.95),
		P99:    quantile(s, 0.99),
		Stddev: stddev(n, sum, sumsq),
	}
}

// stddev is the population standard deviation from running sums.
func stddev(n, sum, sumsq float64) float64 {
	mean := sum / n
	return math.Sqrt(max(sumsq/n-mean*mean, 0))
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := q * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// ---------------------------------------------------------------------------
// Table rendering (experiment output)
// ---------------------------------------------------------------------------

// Table accumulates rows and renders a fixed-width text table, the format
// the benches print for each reproduced figure/table.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; values are formatted with %v (floats get %.2f).
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case float32:
			row[i] = fmt.Sprintf("%.2f", v)
		case time.Duration:
			row[i] = v.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
