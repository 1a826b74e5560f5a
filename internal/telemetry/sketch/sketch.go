// Package sketch implements a mergeable quantile sketch for the statistics
// plane: a DDSketch-style fixed-gamma log-bucket histogram with a
// relative-error guarantee. Inserting a value costs O(1) (a log, a ceil and a
// counter bump) and allocates nothing once the bucket range has been seen;
// quantile queries walk the bucket array (O(buckets), no sort); two sketches
// with the same accuracy parameter merge by bucket-wise count addition, so
// GM→GL rollups and failover state sync can ship whole distributions instead
// of point averages.
//
// Accuracy model: for a configured relative error alpha, values are mapped to
// buckets at gamma = (1+alpha)/(1-alpha) resolution. A rank-q query returns a
// value v' such that |v' - v| <= alpha*v for the true rank-q value v, for all
// v > the zero threshold (values at or below it — including exact zeros,
// ubiquitous in idle utilization series — collapse into a dedicated zero
// bucket and are reported as 0). Min, max, sum and count are tracked exactly,
// and quantile estimates are clamped into [Min, Max].
//
// The sketch is NOT safe for concurrent use; callers synchronize exactly as
// they do for the series rings it shadows (the telemetry store mutates
// sketches under its shard locks).
package sketch

import "math"

// DefaultAlpha is the relative-error bound used when New is given a
// non-positive alpha: 1% — p95 of a utilization series is off by at most one
// part in a hundred, far inside the noise of the monitoring cadence.
const DefaultAlpha = 0.01

// zeroThreshold is the smallest value tracked at relative resolution; values
// at or below it land in the zero bucket. Utilization fractions, MB and Mbps
// rates all sit far above it.
const zeroThreshold = 1e-9

// maxAlpha bounds the configurable relative error; a looser sketch than 50%
// would be meaningless.
const maxAlpha = 0.5

// minAlpha floors it. The bucket count between two values grows as 1/alpha,
// so a finer sketch would let one wire-supplied alpha (a forged summary or
// snapshot) blow a later Insert's window up to billions of buckets; at 0.1%
// a value range of 1e-9..1e9 spans about 20k buckets.
const minAlpha = 0.001

// Sketch is a mergeable log-bucket quantile sketch. The zero value is not
// usable; construct with New or Decode.
type Sketch struct {
	alpha    float64
	gamma    float64
	logGamma float64

	// counts[i] holds the population of bucket offset+i; bucket k covers the
	// value interval (gamma^(k-1), gamma^k]. The window grows on demand and
	// is the only allocation the sketch ever makes after construction.
	offset int
	counts []uint64

	zero  uint64 // values <= zeroThreshold (incl. exact zeros)
	total uint64
	min   float64
	max   float64
	sum   float64
}

// New creates an empty sketch with the given relative-error bound alpha
// (clamped to [0.001, 0.5]; non-positive selects DefaultAlpha).
func New(alpha float64) *Sketch {
	if alpha <= 0 || math.IsNaN(alpha) {
		alpha = DefaultAlpha
	}
	alpha = min(max(alpha, minAlpha), maxAlpha)
	gamma := (1 + alpha) / (1 - alpha)
	return &Sketch{alpha: alpha, gamma: gamma, logGamma: math.Log(gamma)}
}

// Alpha returns the sketch's relative-error bound.
func (s *Sketch) Alpha() float64 { return s.alpha }

// Count returns the number of inserted values.
func (s *Sketch) Count() uint64 { return s.total }

// Sum returns the exact sum of inserted values.
func (s *Sketch) Sum() float64 { return s.sum }

// Min returns the exact minimum inserted value (0 when empty).
func (s *Sketch) Min() float64 {
	if s.total == 0 {
		return 0
	}
	return s.min
}

// Max returns the exact maximum inserted value (0 when empty).
func (s *Sketch) Max() float64 {
	if s.total == 0 {
		return 0
	}
	return s.max
}

// Avg returns the exact mean of inserted values (0 when empty).
func (s *Sketch) Avg() float64 {
	if s.total == 0 {
		return 0
	}
	return s.sum / float64(s.total)
}

// Insert records one value. Non-finite values are ignored.
func (s *Sketch) Insert(v float64) { s.InsertN(v, 1) }

// InsertN records a value n times in O(1) — the count-weighted insert the
// stitched tier reduction uses (a decimated bucket's average enters with the
// bucket's absorbed sample count as its weight).
func (s *Sketch) InsertN(v float64, n uint64) {
	if n == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	if s.total == 0 || v < s.min {
		s.min = v
	}
	if s.total == 0 || v > s.max {
		s.max = v
	}
	s.total += n
	s.sum += v * float64(n)
	if v <= zeroThreshold {
		s.zero += n
		return
	}
	s.bucketAt(s.index(v)).add(n)
}

// index maps a value > zeroThreshold to its bucket: the smallest k with
// gamma^k >= v.
func (s *Sketch) index(v float64) int {
	return int(math.Ceil(math.Log(v) / s.logGamma))
}

// estimate returns the representative value of bucket k: 2*gamma^k/(gamma+1),
// the point whose relative distance to both bucket edges is exactly alpha.
func (s *Sketch) estimate(k int) float64 {
	return 2 * math.Pow(s.gamma, float64(k)) / (s.gamma + 1)
}

type bucketRef struct {
	s   *Sketch
	pos int
}

func (b bucketRef) add(n uint64) { b.s.counts[b.pos] += n }

// bucketAt returns a reference to bucket k, growing the count window to
// cover it. Inserts inside the seen range are allocation-free.
func (s *Sketch) bucketAt(k int) bucketRef {
	if len(s.counts) == 0 {
		s.offset = k
		if s.counts == nil {
			s.counts = make([]uint64, 1, 8)
		} else {
			s.counts = s.counts[:1]
			s.counts[0] = 0
		}
		return bucketRef{s, 0}
	}
	if k < s.offset {
		shift, need := s.offset-k, s.offset-k+len(s.counts)
		if cap(s.counts) >= need {
			old := len(s.counts)
			s.counts = s.counts[:need]
			copy(s.counts[shift:], s.counts[:old])
			for i := 0; i < shift; i++ {
				s.counts[i] = 0
			}
		} else {
			grown := make([]uint64, need)
			copy(grown[shift:], s.counts)
			s.counts = grown
		}
		s.offset = k
		return bucketRef{s, 0}
	}
	if pos := k - s.offset; pos < len(s.counts) {
		return bucketRef{s, pos}
	}
	for k-s.offset >= len(s.counts) {
		s.counts = append(s.counts, 0)
	}
	return bucketRef{s, k - s.offset}
}

// Merge folds another sketch into this one. Sketches built at the same alpha
// merge exactly (bucket-wise count addition); a differing alpha degrades
// gracefully by re-inserting the other sketch's bucket representatives
// count-weighted, compounding the two error bounds instead of failing.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil || o.total == 0 {
		return
	}
	mn, mx := o.min, o.max
	if s.total > 0 {
		if s.min < mn {
			mn = s.min
		}
		if s.max > mx {
			mx = s.max
		}
	}
	if o.gamma == s.gamma {
		s.total += o.total
		s.sum += o.sum
		s.zero += o.zero
		for i, c := range o.counts {
			if c > 0 {
				s.bucketAt(o.offset + i).add(c)
			}
		}
	} else {
		// Mixed-alpha path: re-insert o's bucket representatives count-
		// weighted (compounds the two error bounds), then restore the exact
		// sum the representatives approximated. The representatives are
		// clamped into o's finite extremes, so none overflows and is dropped.
		sum := s.sum + o.sum
		o.Buckets(s.InsertN)
		s.sum = sum
	}
	// Exact extremes survive the merge; InsertN must not widen them with a
	// bucket representative that overshoots o's true max by alpha.
	s.min, s.max = mn, mx
}

// Quantile returns the estimated value at percentile rank q in [0, 100],
// using the same rank convention as the exact reference reduction
// (rank = q/100 * (count-1) over the sorted multiset). The estimate is within
// relative error Alpha of the true rank value and clamped into [Min, Max].
// An empty sketch returns 0.
func (s *Sketch) Quantile(q float64) float64 {
	if s.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 100 {
		q = 100
	}
	rank := q / 100 * float64(s.total-1)
	cum := float64(s.zero)
	var v float64
	if rank < cum || cum == float64(s.total) {
		v = 0
	} else {
		for i, c := range s.counts {
			cum += float64(c)
			if rank < cum {
				v = s.estimate(s.offset + i)
				break
			}
		}
		if cum <= rank { // numeric slack on the last bucket
			v = s.estimate(s.offset + len(s.counts) - 1)
		}
	}
	if v < s.min {
		v = s.min
	}
	if v > s.max {
		v = s.max
	}
	return v
}

// Buckets visits the sketch's populated buckets in ascending value order:
// the zero bucket first, then each non-empty log bucket, passing the
// bucket's representative value (clamped into [Min, Max]) and its count.
// It is how a fixed-bound histogram layout is rendered from the sketch;
// every representative is within relative error Alpha of the values it
// stands for.
func (s *Sketch) Buckets(visit func(v float64, n uint64)) {
	if s.total == 0 {
		return
	}
	clamp := func(v float64) float64 { return min(max(v, s.min), s.max) }
	if s.zero > 0 {
		visit(clamp(0), s.zero)
	}
	for i, c := range s.counts {
		if c > 0 {
			visit(clamp(s.estimate(s.offset+i)), c)
		}
	}
}

// Reset empties the sketch in place, keeping the bucket window's capacity so
// a reused scratch sketch stays allocation-free across reductions.
func (s *Sketch) Reset() {
	for i := range s.counts {
		s.counts[i] = 0
	}
	s.counts = s.counts[:0]
	s.offset = 0
	s.zero, s.total = 0, 0
	s.min, s.max, s.sum = 0, 0, 0
}

// Clone returns an independent deep copy.
func (s *Sketch) Clone() *Sketch {
	c := *s
	c.counts = append([]uint64(nil), s.counts...)
	return &c
}

// Encoded is the wire/snapshot form of a sketch: a plain value with no
// internal pointers shared with the live sketch, JSON-encodable, compact
// (leading and trailing empty buckets trimmed).
type Encoded struct {
	Alpha  float64  `json:"alpha"`
	Offset int      `json:"offset"`
	Counts []uint64 `json:"counts,omitempty"`
	Zero   uint64   `json:"zero,omitempty"`
	Total  uint64   `json:"total"`
	Min    float64  `json:"min"`
	Max    float64  `json:"max"`
	Sum    float64  `json:"sum"`
}

// Encode serializes the sketch.
func (s *Sketch) Encode() Encoded {
	lo, hi := 0, len(s.counts)
	for lo < hi && s.counts[lo] == 0 {
		lo++
	}
	for hi > lo && s.counts[hi-1] == 0 {
		hi--
	}
	e := Encoded{Alpha: s.alpha, Offset: s.offset + lo, Zero: s.zero, Total: s.total, Min: s.min, Max: s.max, Sum: s.sum}
	if hi > lo {
		e.Counts = append([]uint64(nil), s.counts[lo:hi]...)
	}
	return e
}

// Decode rebuilds a sketch from its encoded form. A malformed encoding — an
// alpha below the floor New clamps to, a count mismatch, counts whose sum
// overflows, a bucket window outside the range finite values above the
// zero threshold can reach at the encoded alpha, or extremes and sum that no
// finite input produces (non-finite, or Min above Max) — yields an empty
// sketch at the clamped alpha rather than a corrupt one (a hostile Offset or
// alpha would otherwise make the next Merge or Insert grow the window without
// bound, and a NaN Min would poison every sketch it is merged into). An
// empty encoding decodes to the empty sketch whatever its extremes say.
func Decode(e Encoded) *Sketch {
	s := New(e.Alpha)
	if !(e.Alpha >= minAlpha) || e.Total == 0 {
		return s
	}
	if !finite(e.Min) || !finite(e.Max) || !finite(e.Sum) || e.Min > e.Max {
		return s
	}
	var sum uint64
	for _, c := range e.Counts {
		if sum+c < sum {
			return s
		}
		sum += c
	}
	if sum+e.Zero < sum || sum+e.Zero != e.Total {
		return s
	}
	if n := len(e.Counts); n > 0 {
		lo, hi := s.index(zeroThreshold), s.index(math.MaxFloat64)
		if e.Offset < lo || e.Offset > hi || n-1 > hi-e.Offset {
			return s
		}
	}
	s.offset = e.Offset
	s.counts = append([]uint64(nil), e.Counts...)
	s.zero, s.total = e.Zero, e.Total
	s.min, s.max, s.sum = e.Min, e.Max, e.Sum
	return s
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
