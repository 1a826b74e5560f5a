package sketch

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactBounds returns the empirical values bracketing percentile rank q of
// the sorted multiset under the floor/ceil rank convention the sketch and
// the exact reference reduction share (rank = q/100 * (n-1)).
func exactBounds(sorted []float64, q float64) (lo, hi float64) {
	if len(sorted) == 0 {
		return 0, 0
	}
	rank := q / 100 * float64(len(sorted)-1)
	f := int(math.Floor(rank))
	c := int(math.Ceil(rank))
	if c >= len(sorted) {
		c = len(sorted) - 1
	}
	return sorted[f], sorted[c]
}

// withinBound asserts est is inside [(1-alpha)*lo, (1+alpha)*hi] where
// lo/hi bracket the true empirical rank value.
func withinBound(t *testing.T, est, lo, hi, alpha float64, ctx string) {
	t.Helper()
	lob := lo - alpha*math.Abs(lo) - 1e-12
	hib := hi + alpha*math.Abs(hi) + 1e-12
	if est < lob || est > hib {
		t.Fatalf("%s: estimate %v outside [%v, %v] (empirical [%v, %v], alpha %v)", ctx, est, lob, hib, lo, hi, alpha)
	}
}

func TestQuantileRelativeErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, alpha := range []float64{0.005, 0.01, 0.05} {
		for trial := 0; trial < 20; trial++ {
			s := New(alpha)
			n := 1 + rng.Intn(4000)
			vals := make([]float64, 0, n)
			for i := 0; i < n; i++ {
				var v float64
				switch rng.Intn(4) {
				case 0:
					v = 0 // idle utilization
				case 1:
					v = rng.Float64() // fractions
				case 2:
					v = math.Exp(rng.Float64()*20 - 4) // heavy-tailed, up to ~e^16
				default:
					v = float64(rng.Intn(10000)) / 100
				}
				vals = append(vals, v)
				s.Insert(v)
			}
			sort.Float64s(vals)
			if got := s.Count(); got != uint64(n) {
				t.Fatalf("count = %d, want %d", got, n)
			}
			if s.Min() != vals[0] || s.Max() != vals[len(vals)-1] {
				t.Fatalf("min/max = %v/%v, want %v/%v", s.Min(), s.Max(), vals[0], vals[len(vals)-1])
			}
			for _, q := range []float64{0, 1, 10, 25, 50, 75, 90, 95, 99, 100} {
				lo, hi := exactBounds(vals, q)
				withinBound(t, s.Quantile(q), lo, hi, alpha, "quantile")
			}
		}
	}
}

func TestInsertNMatchesRepeatedInsert(t *testing.T) {
	a, b := New(0.01), New(0.01)
	vals := []float64{0, 0.25, 3, 3, 3, 42.5, 1e6}
	for _, v := range vals {
		a.InsertN(v, 5)
		for i := 0; i < 5; i++ {
			b.Insert(v)
		}
	}
	for _, q := range []float64{0, 10, 50, 90, 100} {
		if a.Quantile(q) != b.Quantile(q) {
			t.Fatalf("q%v: InsertN %v != repeated %v", q, a.Quantile(q), b.Quantile(q))
		}
	}
	if a.Count() != b.Count() || a.Sum() != b.Sum() {
		t.Fatalf("count/sum mismatch: %d/%v vs %d/%v", a.Count(), a.Sum(), b.Count(), b.Sum())
	}
}

// TestMergeEquivalence pins merge-then-query ≡ query-then-merge: a random
// tree of same-alpha merges must yield bit-identical quantiles to one sketch
// fed every value directly, and stay within bound of the exact multiset.
func TestMergeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		parts := 2 + rng.Intn(6)
		sketches := make([]*Sketch, parts)
		direct := New(0.01)
		var all []float64
		for p := 0; p < parts; p++ {
			sketches[p] = New(0.01)
			n := rng.Intn(1000)
			for i := 0; i < n; i++ {
				v := math.Exp(rng.Float64()*12 - 2)
				if rng.Intn(10) == 0 {
					v = 0
				}
				sketches[p].Insert(v)
				direct.Insert(v)
				all = append(all, v)
			}
		}
		// Random merge tree: repeatedly merge a random sketch into another.
		for len(sketches) > 1 {
			i := rng.Intn(len(sketches) - 1)
			sketches[i].Merge(sketches[i+1])
			sketches = append(sketches[:i+1], sketches[i+2:]...)
		}
		merged := sketches[0]
		if merged.Count() != direct.Count() {
			t.Fatalf("merged count %d != direct %d", merged.Count(), direct.Count())
		}
		sort.Float64s(all)
		for _, q := range []float64{0, 5, 50, 95, 99, 100} {
			if m, d := merged.Quantile(q), direct.Quantile(q); m != d {
				t.Fatalf("q%v: merged %v != direct %v", q, m, d)
			}
			if len(all) > 0 {
				lo, hi := exactBounds(all, q)
				withinBound(t, merged.Quantile(q), lo, hi, 0.01, "merged quantile")
			}
		}
	}
}

func TestMergeMixedAlpha(t *testing.T) {
	coarse, fine := New(0.05), New(0.01)
	vals := []float64{1, 2, 4, 8, 16, 32}
	for _, v := range vals {
		coarse.Insert(v)
	}
	fine.InsertN(64, 2)
	fine.Merge(coarse)
	if fine.Count() != 8 {
		t.Fatalf("count = %d, want 8", fine.Count())
	}
	if fine.Min() != 1 || fine.Max() != 64 {
		t.Fatalf("min/max = %v/%v, want 1/64", fine.Min(), fine.Max())
	}
	wantSum := 1.0 + 2 + 4 + 8 + 16 + 32 + 128
	if math.Abs(fine.Sum()-wantSum) > 1e-9 {
		t.Fatalf("sum = %v, want %v", fine.Sum(), wantSum)
	}
	// Compounded bound: alpha_fine + alpha_coarse (+ cross term, negligible).
	sorted := append(append([]float64(nil), vals...), 64, 64)
	sort.Float64s(sorted)
	for _, q := range []float64{0, 50, 100} {
		lo, hi := exactBounds(sorted, q)
		withinBound(t, fine.Quantile(q), lo, hi, 0.07, "mixed-alpha quantile")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := New(0.02)
	var vals []float64
	for i := 0; i < 500; i++ {
		v := rng.Float64() * 100
		if i%7 == 0 {
			v = 0
		}
		s.Insert(v)
		vals = append(vals, v)
	}
	enc := s.Encode()
	dec := Decode(enc)
	if dec.Count() != s.Count() || dec.Min() != s.Min() || dec.Max() != s.Max() || dec.Sum() != s.Sum() || dec.Alpha() != s.Alpha() {
		t.Fatalf("round trip lost exact stats")
	}
	for _, q := range []float64{0, 25, 50, 75, 95, 100} {
		if dec.Quantile(q) != s.Quantile(q) {
			t.Fatalf("q%v: decoded %v != original %v", q, dec.Quantile(q), s.Quantile(q))
		}
	}
	// A decoded sketch keeps merging correctly.
	dec.Merge(s)
	if dec.Count() != 2*s.Count() {
		t.Fatalf("merge after decode: count %d, want %d", dec.Count(), 2*s.Count())
	}
	// Corrupt encoding decodes to an empty sketch, not a lying one.
	enc.Total += 3
	if bad := Decode(enc); bad.Count() != 0 {
		t.Fatalf("corrupt encoding decoded to count %d, want 0", bad.Count())
	}
}

func TestZerosAndEmpty(t *testing.T) {
	s := New(0.01)
	if s.Quantile(50) != 0 || s.Count() != 0 || s.Min() != 0 || s.Max() != 0 || s.Avg() != 0 {
		t.Fatalf("empty sketch not all-zero")
	}
	s.InsertN(0, 10)
	if s.Quantile(0) != 0 || s.Quantile(100) != 0 {
		t.Fatalf("all-zero sketch quantiles nonzero")
	}
	s.Insert(5)
	if got := s.Quantile(100); math.Abs(got-5) > 0.05 {
		t.Fatalf("q100 = %v, want ~5", got)
	}
	if got := s.Quantile(50); got != 0 {
		t.Fatalf("q50 = %v, want 0 (10 zeros vs 1 five)", got)
	}
	s.Insert(math.NaN())
	s.Insert(math.Inf(1))
	if s.Count() != 11 {
		t.Fatalf("non-finite values were counted")
	}
}

func TestResetReuse(t *testing.T) {
	s := New(0.01)
	for i := 1; i <= 100; i++ {
		s.Insert(float64(i))
	}
	s.Reset()
	if s.Count() != 0 || s.Quantile(50) != 0 {
		t.Fatalf("reset left residue")
	}
	s.Insert(7)
	if got := s.Quantile(50); math.Abs(got-7) > 0.07 {
		t.Fatalf("post-reset q50 = %v, want ~7", got)
	}
	if s.Min() != 7 || s.Max() != 7 || s.Count() != 1 {
		t.Fatalf("post-reset stats wrong: min %v max %v count %d", s.Min(), s.Max(), s.Count())
	}
}

func TestNewClampsAlpha(t *testing.T) {
	if got := New(0).Alpha(); got != DefaultAlpha {
		t.Fatalf("New(0) alpha = %v, want %v", got, DefaultAlpha)
	}
	if got := New(-1).Alpha(); got != DefaultAlpha {
		t.Fatalf("New(-1) alpha = %v, want %v", got, DefaultAlpha)
	}
	if got := New(0.9).Alpha(); got != maxAlpha {
		t.Fatalf("New(0.9) alpha = %v, want %v", got, maxAlpha)
	}
}

func TestClone(t *testing.T) {
	s := New(0.01)
	for i := 1; i <= 50; i++ {
		s.Insert(float64(i))
	}
	c := s.Clone()
	c.Insert(1e9)
	if s.Max() == c.Max() {
		t.Fatalf("clone shares state with original")
	}
	if s.Count() != 50 || c.Count() != 51 {
		t.Fatalf("counts: original %d clone %d", s.Count(), c.Count())
	}
}

func benchValues(n int) []float64 {
	rng := rand.New(rand.NewSource(42))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Float64() * 100
	}
	return vals
}

func BenchmarkSketchInsert(b *testing.B) {
	vals := benchValues(1024)
	s := New(DefaultAlpha)
	for _, v := range vals {
		s.Insert(v) // warm the bucket window
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Insert(vals[i&1023])
	}
}

func BenchmarkSketchMerge(b *testing.B) {
	vals := benchValues(8192)
	left, right := New(DefaultAlpha), New(DefaultAlpha)
	for i, v := range vals {
		if i%2 == 0 {
			left.Insert(v)
		} else {
			right.Insert(v)
		}
	}
	scratch := New(DefaultAlpha)
	scratch.Merge(left)
	scratch.Merge(right) // warm the bucket window
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch.Reset()
		scratch.Merge(left)
		scratch.Merge(right)
	}
}

func BenchmarkSketchReduce(b *testing.B) {
	vals := benchValues(8192)
	s := New(DefaultAlpha)
	for _, v := range vals {
		s.Insert(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Quantile(50)
		_ = s.Quantile(95)
	}
}

// A bucket window no finite value can reach decodes to an empty sketch, so a
// hostile Offset cannot make a later Merge grow the receiver's window.
func TestDecodeRejectsUnreachableOffset(t *testing.T) {
	hi := New(DefaultAlpha).index(math.MaxFloat64)
	for _, e := range []Encoded{
		{Alpha: DefaultAlpha, Offset: 1 << 33, Counts: []uint64{1}, Total: 1, Min: 1, Max: 1, Sum: 1},
		{Alpha: DefaultAlpha, Offset: -(1 << 33), Counts: []uint64{1}, Total: 1, Min: 1, Max: 1, Sum: 1},
		{Alpha: DefaultAlpha, Offset: hi, Counts: []uint64{1, 1}, Total: 2, Min: 1, Max: 1, Sum: 2},
	} {
		d := Decode(e)
		if d.Count() != 0 {
			t.Fatalf("offset %d: decoded count %d, want an empty sketch", e.Offset, d.Count())
		}
		s := New(DefaultAlpha)
		s.Insert(0.5)
		s.Merge(d)
		if s.Count() != 1 || len(s.counts) != 1 {
			t.Fatalf("offset %d: merge changed the receiver: count %d, window %d", e.Offset, s.Count(), len(s.counts))
		}
	}
	// The highest and lowest reachable buckets still decode.
	top := New(DefaultAlpha)
	top.Insert(math.MaxFloat64)
	top.Insert(2 * zeroThreshold)
	if d := Decode(top.Encode()); d.Count() != 2 {
		t.Fatalf("extreme finite values: decoded count %d, want 2", d.Count())
	}
}

// A wire alpha below the floor decodes to an empty sketch at the floor, so
// ordinary inserts into the restored sketch keep a bounded bucket window
// instead of spanning ~10^12 buckets.
func TestDecodeFloorsTinyAlpha(t *testing.T) {
	e := Encoded{Alpha: 1e-12, Offset: 0, Counts: []uint64{1}, Total: 1, Min: 1, Max: 1, Sum: 1}
	d := Decode(e)
	if d.Alpha() != minAlpha {
		t.Fatalf("decoded alpha %v, want the floor %v", d.Alpha(), minAlpha)
	}
	if d.Count() != 0 {
		t.Fatalf("decoded count %d, want an empty sketch", d.Count())
	}
	d.Insert(1e-6)
	d.Insert(1e6)
	// ln(1e12)/ln(gamma) at alpha 0.001 is ~13.8k buckets.
	if bound := d.index(1e6) - d.index(1e-6) + 1; len(d.counts) > bound || bound > 14000 {
		t.Fatalf("bucket window %d (bound %d), want at most 14000", len(d.counts), bound)
	}
	if got := New(1e-12).Alpha(); got != minAlpha {
		t.Fatalf("New(1e-12) alpha = %v, want %v", got, minAlpha)
	}
}

// Counts whose sum wraps around uint64 must not pass the total check.
func TestDecodeRejectsWrappingCounts(t *testing.T) {
	e := Encoded{Alpha: DefaultAlpha, Offset: 0, Counts: []uint64{math.MaxUint64, 2}, Total: 1, Min: 1, Max: 1, Sum: 1}
	if d := Decode(e); d.Count() != 0 {
		t.Fatalf("wrapping counts decoded to count %d, want 0", d.Count())
	}
	e = Encoded{Alpha: DefaultAlpha, Offset: 0, Counts: []uint64{2}, Zero: math.MaxUint64, Total: 1, Min: 0, Max: 1, Sum: 1}
	if d := Decode(e); d.Count() != 0 {
		t.Fatalf("wrapping zero count decoded to count %d, want 0", d.Count())
	}
}

// Extremes and sum no finite input produces decode to an empty sketch, so a
// forged summary cannot report a -Inf quantile or poison the Min of the
// sketch it is merged into.
func TestDecodeRejectsNonFiniteExtremes(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, e := range []Encoded{
		{Alpha: DefaultAlpha, Counts: []uint64{3}, Total: 3, Min: nan, Max: -inf, Sum: nan},
		{Alpha: DefaultAlpha, Counts: []uint64{3}, Total: 3, Min: 1, Max: inf, Sum: 3},
		{Alpha: DefaultAlpha, Counts: []uint64{3}, Total: 3, Min: 1, Max: 1, Sum: inf},
		{Alpha: DefaultAlpha, Counts: []uint64{3}, Total: 3, Min: 2, Max: 1, Sum: 3},
	} {
		d := Decode(e)
		if d.Count() != 0 {
			t.Fatalf("%+v: decoded count %d, want an empty sketch", e, d.Count())
		}
		live := New(DefaultAlpha)
		live.Insert(0.5)
		live.Insert(2)
		live.Merge(d)
		if live.Min() != 0.5 || live.Max() != 2 || live.Avg() != 1.25 {
			t.Fatalf("%+v: merge changed the receiver: min %v max %v avg %v", e, live.Min(), live.Max(), live.Avg())
		}
	}
	// An empty encoding carries no extremes worth keeping.
	d := Decode(Encoded{Alpha: DefaultAlpha, Min: nan, Max: nan, Sum: 5})
	d.Insert(1)
	if d.Min() != 1 || d.Sum() != 1 {
		t.Fatalf("empty encoding leaked state: min %v sum %v", d.Min(), d.Sum())
	}
}

func TestBucketsWalk(t *testing.T) {
	s := New(DefaultAlpha)
	if s.Buckets(func(float64, uint64) { t.Fatal("empty sketch visited a bucket") }); t.Failed() {
		return
	}
	vals := []float64{0, 0, 0.5, 3, 3, 3, 1000}
	for _, v := range vals {
		s.Insert(v)
	}
	var got []float64
	var total uint64
	s.Buckets(func(v float64, n uint64) {
		if len(got) > 0 && v <= got[len(got)-1] {
			t.Fatalf("bucket %v after %v: not ascending", v, got[len(got)-1])
		}
		got = append(got, v)
		total += n
	})
	if total != s.Count() || len(got) != 4 {
		t.Fatalf("walk visited %d buckets holding %d values, want 4 holding %d", len(got), total, s.Count())
	}
	if got[0] != 0 || got[len(got)-1] != 1000 {
		t.Fatalf("walk ends %v..%v, want the zero bucket first and the clamped max last", got[0], got[len(got)-1])
	}
	for i, want := range []float64{0.5, 3} {
		if math.Abs(got[i+1]-want) > DefaultAlpha*want {
			t.Fatalf("bucket %d representative %v, want within alpha of %v", i+1, got[i+1], want)
		}
	}
}

// fuzzSeeds are the encodings of sketches shaped like the ones summaries and
// snapshots carry: utilization fractions with idle zeros, heavy-tailed
// latencies and a coarse mixed-alpha sketch.
func fuzzSeeds() []Encoded {
	rng := rand.New(rand.NewSource(5))
	util, lat, coarse := New(DefaultAlpha), New(DefaultAlpha), New(0.05)
	for i := 0; i < 500; i++ {
		if i%4 == 0 {
			util.Insert(0)
		} else {
			util.Insert(rng.Float64())
		}
		lat.Insert(math.Exp(rng.Float64()*12 - 6))
		coarse.Insert(float64(rng.Intn(1000)))
	}
	return []Encoded{util.Encode(), lat.Encode(), coarse.Encode(), New(DefaultAlpha).Encode()}
}

// putCounts and getCounts carry Encoded.Counts through the fuzzer's byte
// slice as a sequence of uvarints.
func putCounts(counts []uint64) []byte {
	var b []byte
	for _, c := range counts {
		b = binary.AppendUvarint(b, c)
	}
	return b
}

func getCounts(b []byte) []uint64 {
	var out []uint64
	for len(b) > 0 {
		c, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		out = append(out, c)
		b = b[n:]
	}
	return out
}

// FuzzDecode drives a wire encoding through everything a receiver does with
// it: Decode, Insert, Merge into a live sketch, Quantile and Buckets.
func FuzzDecode(f *testing.F) {
	for _, e := range fuzzSeeds() {
		f.Add(e.Alpha, e.Offset, putCounts(e.Counts), e.Zero, e.Total, e.Min, e.Max, e.Sum, 0.75)
	}
	f.Fuzz(func(t *testing.T, alpha float64, offset int, counts []byte, zero, total uint64, mn, mx, sum, v float64) {
		d := Decode(Encoded{Alpha: alpha, Offset: offset, Counts: getCounts(counts), Zero: zero, Total: total, Min: mn, Max: mx, Sum: sum})
		checkSketch(t, "decoded", d)
		d.Insert(v)
		checkSketch(t, "decoded+insert", d)
		live := New(DefaultAlpha)
		live.Insert(0)
		live.Insert(0.25)
		live.Insert(40)
		want := live.Count() + d.Count()
		live.Merge(d)
		if live.Count() != want {
			t.Fatalf("merge count %d, want %d", live.Count(), want)
		}
		checkSketch(t, "merged", live)
	})
}

// checkSketch asserts the invariants every sketch must keep whatever it was
// decoded from: quantiles finite, inside [Min, Max] and non-decreasing in q,
// and a bucket walk that accounts for every value.
func checkSketch(t *testing.T, ctx string, s *Sketch) {
	t.Helper()
	prev := math.Inf(-1)
	for _, q := range []float64{0, 1, 25, 50, 75, 95, 99, 100} {
		v := s.Quantile(q)
		if math.IsNaN(v) || math.IsInf(v, 0) || v < s.Min() || v > s.Max() || v < prev {
			t.Fatalf("%s: q%v = %v (previous %v, min %v, max %v)", ctx, q, v, prev, s.Min(), s.Max())
		}
		prev = v
	}
	var n uint64
	s.Buckets(func(_ float64, c uint64) { n += c })
	if n != s.Count() {
		t.Fatalf("%s: buckets hold %d values, count %d", ctx, n, s.Count())
	}
}
