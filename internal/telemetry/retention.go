package telemetry

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"snooze/internal/telemetry/sketch"
)

// Tiered series retention. A series is a raw bounded ring plus zero or
// more downsampled tiers (default: 1m- and 10m-resolution bucket rings). When
// the raw ring evicts its oldest sample, the sample is not lost: it is folded
// into the finest tier's pending bucket; completed buckets are pushed into
// that tier's ring, whose own evictions cascade into the next coarser tier.
// Only data evicted from the coarsest tier is gone for good.
//
// Compaction is incremental — every Append does O(1) amortized folding work
// under the shard lock it already holds — and tier rings are allocated lazily
// on the first eviction, so short-lived series (VM churn) never pay for them.
//
// Coverage is disjoint by construction: evictions flow oldest-first, so every
// point retained by tier k is older than every point of tier k-1, and every
// tier point is older than the raw ring's oldest sample. Stitched reads
// (Query, Reduce) therefore walk coarsest ring → coarsest pending → ... →
// finest pending → raw and see a time-ordered sequence with no overlap.
// Bucket points are stamped at the bucket start and valued at the bucket
// average (the same convention as Downsample); their min/max/count survive
// for Reduce, which prefers them for exact extremes.

// TierConfig describes one downsampled retention tier.
type TierConfig struct {
	// Step is the bucket resolution (e.g. time.Minute).
	Step time.Duration
	// Capacity is the ring length in buckets.
	Capacity int
}

// DefaultTiers is the standard raw → 1m → 10m retention ladder: 512 one-
// minute buckets (≈8.5h) backed by 512 ten-minute buckets (≈3.5d).
func DefaultTiers() []TierConfig {
	return []TierConfig{
		{Step: time.Minute, Capacity: 512},
		{Step: 10 * time.Minute, Capacity: 512},
	}
}

// NoTiers disables downsampled retention: the raw ring overwrites and evicted
// samples are gone (the pre-tiering behaviour). Distinct from nil, which
// selects DefaultTiers.
var NoTiers = []TierConfig{}

// ParseTiers parses a tier ladder from its flag form: a comma-separated list
// of "step:capacity" pairs with ascending steps (e.g. "1m:512,10m:512").
// "" selects the default ladder (nil), "none" disables tiers.
func ParseTiers(s string) ([]TierConfig, error) {
	switch strings.TrimSpace(s) {
	case "":
		return nil, nil
	case "none":
		return NoTiers, nil
	}
	var out []TierConfig
	for _, part := range strings.Split(s, ",") {
		step, capa, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("telemetry: tier %q: want step:capacity", part)
		}
		d, err := time.ParseDuration(step)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("telemetry: tier %q: bad step", part)
		}
		n, err := strconv.Atoi(capa)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("telemetry: tier %q: bad capacity", part)
		}
		if len(out) > 0 && d <= out[len(out)-1].Step {
			return nil, fmt.Errorf("telemetry: tier steps must ascend (%v after %v)", d, out[len(out)-1].Step)
		}
		out = append(out, TierConfig{Step: d, Capacity: n})
	}
	return out, nil
}

// sanitizeTiers normalizes a tier ladder: nil → defaults, invalid entries
// dropped, steps forced ascending (a misordered ladder keeps its first
// consistent prefix rather than corrupting compaction).
func sanitizeTiers(tiers []TierConfig) []TierConfig {
	if tiers == nil {
		return DefaultTiers()
	}
	out := make([]TierConfig, 0, len(tiers))
	for _, tc := range tiers {
		if tc.Step <= 0 || tc.Capacity <= 0 {
			continue
		}
		if len(out) > 0 && tc.Step <= out[len(out)-1].Step {
			continue
		}
		out = append(out, tc)
	}
	return out
}

// bucket is one downsampled tier point: the aggregate of the raw samples
// folded into it. A bucket with count 0 is empty (the pending slot's idle
// state).
type bucket struct {
	at       time.Duration // bucket start: floor(sample.At / step) * step
	min, max float64
	sum      float64
	count    int // raw samples behind this bucket
}

func (b bucket) avg() float64 { return b.sum / float64(b.count) }

// fold merges another aggregate (a raw sample or a finer bucket) into b.
func (b *bucket) fold(o bucket) {
	if o.min < b.min {
		b.min = o.min
	}
	if o.max > b.max {
		b.max = o.max
	}
	b.sum += o.sum
	b.count += o.count
}

// tier is one downsampled ring. buf is allocated on the first absorb, so a
// series that never wraps its raw ring carries only this header.
type tier struct {
	step    time.Duration
	cap     int
	buf     []bucket
	head, n int
	// pending accumulates the tier's newest (still-growing) bucket; it is
	// part of the tier's retained data (stitched reads include it) but lives
	// outside the ring until a later-bucket absorb completes it.
	pending bucket
	// evicted counts buckets pushed out of this ring — into the next tier,
	// or lost for good from the coarsest one.
	evicted uint64
}

// at returns the i-th retained ring bucket, oldest first (pending excluded).
func (t *tier) at(i int) bucket { return t.buf[(t.head+i)%len(t.buf)] }

// points counts the tier's retained points including the pending bucket.
func (t *tier) points() int {
	if t.pending.count > 0 {
		return t.n + 1
	}
	return t.n
}

// searchAtLeast returns the first ring index whose bucket start is >= at.
func (t *tier) searchAtLeast(at time.Duration) int {
	lo, hi := 0, t.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.at(mid).at >= at {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// bounds returns the ring index range [lo, hi) of buckets stamped in
// [from, to] (pending excluded; stitched walkers handle it separately).
func (t *tier) bounds(from, to time.Duration) (lo, hi int) {
	lo = t.searchAtLeast(from)
	l, h := lo, t.n
	for l < h {
		mid := int(uint(l+h) >> 1)
		if t.at(mid).at > to {
			h = mid
		} else {
			l = mid + 1
		}
	}
	return lo, l
}

// absorb folds one finer-resolution aggregate into tier i of tiers, flushing
// the pending bucket into the ring when the aggregate opens a later bucket.
// Ring evictions cascade into tier i+1. Aggregates arrive oldest-first (the
// eviction order), so pending never needs reordering.
func absorb(tiers []tier, i int, b bucket) {
	t := &tiers[i]
	start := b.at - b.at%t.step
	if t.pending.count == 0 {
		t.pending = bucket{at: start, min: b.min, max: b.max, sum: b.sum, count: b.count}
		return
	}
	if start == t.pending.at {
		t.pending.fold(b)
		return
	}
	t.flush(tiers, i)
	t.pending = bucket{at: start, min: b.min, max: b.max, sum: b.sum, count: b.count}
}

// flush pushes the completed pending bucket into the ring, evicting the
// oldest ring bucket into the next tier when full.
func (t *tier) flush(tiers []tier, i int) {
	if t.buf == nil {
		t.buf = make([]bucket, t.cap)
	}
	if t.n < len(t.buf) {
		t.buf[(t.head+t.n)%len(t.buf)] = t.pending
		t.n++
		return
	}
	old := t.buf[t.head]
	t.evicted++
	if i+1 < len(tiers) {
		absorb(tiers, i+1, old)
	}
	t.buf[t.head] = t.pending
	t.head = (t.head + 1) % len(t.buf)
}

// point is one element of the stitched (tier-merged) view of a series: a raw
// sample (count 1, min == max == value) or a downsampled bucket (value =
// bucket average, min/max/count preserved).
type point struct {
	at       time.Duration
	value    float64
	min, max float64
	count    int
}

func rawPoint(sm Sample) point {
	return point{at: sm.At, value: sm.Value, min: sm.Value, max: sm.Value, count: 1}
}

func bucketPoint(b bucket) point {
	return point{at: b.at, value: b.avg(), min: b.min, max: b.max, count: b.count}
}

// evictRaw routes one sample evicted from the raw ring into the tiers (or
// drops it when retention is raw-only) and folds it into the eviction sketch
// and moments, so history that the tier ladder decimates — or, with NoTiers,
// drops outright — keeps its full value distribution at sketch resolution.
// The eviction sketch is created here, at the lifetime sketch's accuracy (it
// sketches a prefix of the same samples).
func (s *series) evictRaw(sm Sample) {
	s.evicted++
	if s.evict == nil {
		s.evict = sketch.New(s.life.Alpha())
	}
	s.evict.Insert(sm.Value)
	s.evictM.add(sm.At.Seconds(), sm.Value)
	if len(s.tiers) > 0 {
		absorb(s.tiers, 0, bucket{at: sm.At, min: sm.Value, max: sm.Value, sum: sm.Value, count: 1})
	}
}

// oldestAt returns the oldest retained timestamp across every tier (the
// series-wide retention watermark). Must only be called on a non-empty
// series (n > 0 after the first append).
func (s *series) oldestAt() time.Duration {
	for i := len(s.tiers) - 1; i >= 0; i-- {
		t := &s.tiers[i]
		if t.n > 0 {
			return t.at(0).at
		}
		if t.pending.count > 0 {
			return t.pending.at
		}
	}
	return s.at(0).At
}

// oldestPoint returns the oldest retained stitched point (the coarsest
// tier's oldest bucket, its pending bucket, or the oldest raw sample). Must
// only be called on a non-empty series.
func (s *series) oldestPoint() point {
	for i := len(s.tiers) - 1; i >= 0; i-- {
		t := &s.tiers[i]
		if t.n > 0 {
			return bucketPoint(t.at(0))
		}
		if t.pending.count > 0 {
			return bucketPoint(t.pending)
		}
	}
	return rawPoint(s.at(0))
}

// retainedPoints counts every retained stitched point across raw ring and
// tiers — what a window covering the whole series would visit.
func (s *series) retainedPoints() int {
	n := s.n
	for i := range s.tiers {
		n += s.tiers[i].points()
	}
	return n
}

// rawFrom returns the timestamp where full-resolution coverage begins: the
// raw ring's oldest retained sample. Samples older than this survive only as
// tier buckets (or not at all).
func (s *series) rawFrom() time.Duration { return s.at(0).At }

// truncated reports whether a window starting at from reaches into evicted
// history: part of it is served at tier resolution or is lost outright.
func (s *series) truncated(from time.Duration) bool {
	return s.evicted > 0 && from < s.rawFrom()
}

// countPoints counts the stitched points stamped in [from, to].
func (s *series) countPoints(from, to time.Duration) int {
	n := 0
	for i := len(s.tiers) - 1; i >= 0; i-- {
		t := &s.tiers[i]
		lo, hi := t.bounds(from, to)
		n += hi - lo
		if p := t.pending; p.count > 0 && p.at >= from && p.at <= to {
			n++
		}
	}
	lo, hi := s.bounds(from, to)
	return n + (hi - lo)
}

// visitTierPoints walks the tier-resident points stamped in [from, to],
// oldest first: coarsest tier ring, its pending bucket, ..., finest pending.
// Eviction-order disjointness makes the sequence time-ordered and strictly
// older than every raw sample.
func (s *series) visitTierPoints(from, to time.Duration, visit func(point)) {
	for i := len(s.tiers) - 1; i >= 0; i-- {
		t := &s.tiers[i]
		lo, hi := t.bounds(from, to)
		for j := lo; j < hi; j++ {
			visit(bucketPoint(t.at(j)))
		}
		if p := t.pending; p.count > 0 && p.at >= from && p.at <= to {
			visit(bucketPoint(p))
		}
	}
}

// visitPoints walks the stitched points stamped in [from, to], oldest first:
// the tier-resident history, then the raw ring.
func (s *series) visitPoints(from, to time.Duration, visit func(point)) {
	s.visitTierPoints(from, to, visit)
	lo, hi := s.bounds(from, to)
	for i := lo; i < hi; i++ {
		visit(rawPoint(s.at(i)))
	}
}

// stitchWindow appends the stitched points stamped in [from, to] to dst as
// samples (bucket points valued at the bucket average), oldest first.
func (s *series) stitchWindow(from, to time.Duration, dst []Sample) []Sample {
	n := s.countPoints(from, to)
	if n == 0 {
		return dst
	}
	if dst == nil {
		dst = make([]Sample, 0, n)
	}
	s.visitPoints(from, to, func(p point) {
		dst = append(dst, Sample{At: p.at, Value: p.value})
	})
	return dst
}

// TierInfo describes one retention tier of a series.
type TierInfo struct {
	// Step is the tier's bucket resolution.
	Step time.Duration
	// Capacity is the tier ring length in buckets.
	Capacity int
	// Points is the retained bucket count (including the pending bucket).
	Points int
	// Evicted counts buckets pushed out of this tier's ring.
	Evicted uint64
}

// SeriesInfo is the retention metadata of one series: how much history each
// tier holds and where full-resolution coverage begins.
type SeriesInfo struct {
	// RawCapacity is the raw ring's maximum length (StoreConfig.
	// SeriesCapacity), however far the ring has grown; RawPoints is the
	// retained raw sample count.
	RawCapacity int
	RawPoints   int
	// Points counts every retained point across all tiers (the stitched
	// series length).
	Points int
	// OldestAt / NewestAt bound the retained range (any resolution).
	OldestAt time.Duration
	NewestAt time.Duration
	// RawFrom is where full-resolution coverage begins; older history exists
	// only as tier buckets. Equals OldestAt while Evicted is 0.
	RawFrom time.Duration
	// Evicted counts raw samples pushed out of the raw ring since the series
	// was created. Non-zero means windows reaching before RawFrom are
	// decimated (Summary.Truncated).
	Evicted uint64
	// Tiers describes the downsampled rings, finest first.
	Tiers []TierInfo
	// Gen is the series' append generation (see Store.Generation).
	Gen uint64
}

// Info returns the retention metadata of one series, and whether it exists.
func (s *Store) Info(entity, metric string) (SeriesInfo, bool) {
	sh := s.shardFor(entity, metric)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	ser, ok := sh.series[Key{Entity: entity, Metric: metric}]
	if !ok || ser.n == 0 {
		return SeriesInfo{}, false
	}
	info := SeriesInfo{
		RawCapacity: ser.capacity,
		RawPoints:   ser.n,
		Points:      ser.n,
		OldestAt:    ser.oldestAt(),
		NewestAt:    ser.at(ser.n - 1).At,
		RawFrom:     ser.rawFrom(),
		Evicted:     ser.evicted,
		Gen:         ser.gen,
	}
	if len(ser.tiers) > 0 {
		info.Tiers = make([]TierInfo, len(ser.tiers))
		for i := range ser.tiers {
			t := &ser.tiers[i]
			info.Tiers[i] = TierInfo{Step: t.step, Capacity: t.cap, Points: t.points(), Evicted: t.evicted}
			info.Points += t.points()
		}
	}
	return info, true
}

// EntityNewest returns, for every entity whose name starts with prefix, the
// newest retained sample timestamp across all of that entity's series. It is
// the liveness sweep's scan primitive: an entity whose newest sample is older
// than the grace period has stopped reporting everywhere.
func (s *Store) EntityNewest(prefix string) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, ser := range sh.series {
			if ser.n == 0 || !strings.HasPrefix(k.Entity, prefix) {
				continue
			}
			newest := ser.at(ser.n - 1).At
			if cur, ok := out[k.Entity]; !ok || newest > cur {
				out[k.Entity] = newest
			}
		}
		sh.mu.RUnlock()
	}
	return out
}
