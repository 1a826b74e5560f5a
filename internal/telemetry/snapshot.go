package telemetry

import (
	"math"
	"sort"
	"time"

	"snooze/internal/telemetry/sketch"
)

// State snapshot and restore. A Store (and the Hub around it) can be
// serialized into a compact, structural snapshot — per-series raw ring, tier
// ladder, eviction watermarks and append generation — and rebuilt elsewhere,
// so a GM handoff can carry its windowed telemetry across the failure instead
// of resetting every capacity view to Fresh=false. The snapshot is a plain
// value (no internal pointers), safe to send over the in-memory transport or
// encode for a wire.
//
// The journal side of the same story is Journal.Import: archived events are
// re-inserted with their ORIGINAL sequence numbers, skipping any already
// present, so a hub reconstructs as snapshot + journal tail and a second
// replay of the same segment is a no-op (idempotent recovery).

// BucketSnapshot is one downsampled tier bucket in snapshot form.
type BucketSnapshot struct {
	At    time.Duration `json:"at"`
	Min   float64       `json:"min"`
	Max   float64       `json:"max"`
	Sum   float64       `json:"sum"`
	Count int           `json:"count"`
}

func bucketToSnapshot(b bucket) BucketSnapshot {
	return BucketSnapshot{At: b.at, Min: b.min, Max: b.max, Sum: b.sum, Count: b.count}
}

func (b BucketSnapshot) bucket() bucket {
	return bucket{at: b.At, min: b.Min, max: b.Max, sum: b.Sum, count: b.Count}
}

// TierSnapshot is one retention tier in snapshot form: the retained buckets
// oldest first, the still-growing pending bucket (Count 0 when idle) and the
// eviction watermark.
type TierSnapshot struct {
	Step     time.Duration    `json:"step"`
	Capacity int              `json:"capacity"`
	Buckets  []BucketSnapshot `json:"buckets,omitempty"`
	Pending  BucketSnapshot   `json:"pending"`
	Evicted  uint64           `json:"evicted"`
}

// SeriesSnapshot is one series in snapshot form: the raw samples oldest
// first, the tier ladder, the Evicted watermark that preserves Truncated
// semantics across a restore, and the mergeable quantile sketches + moments
// that preserve the lifetime distribution. RawCapacity and Gen describe the
// source store; Restore adopts neither.
// Sketches ride even the trimmed SnapshotSince form — they are tiny next to
// the raw window and are precisely what lets a failover adopter answer
// honest percentiles for history the trim dropped.
type SeriesSnapshot struct {
	Entity      string          `json:"entity"`
	Metric      string          `json:"metric"`
	RawCapacity int             `json:"rawCapacity"`
	Samples     []Sample        `json:"samples,omitempty"`
	Gen         uint64          `json:"gen"`
	Evicted     uint64          `json:"evicted"`
	Tiers       []TierSnapshot  `json:"tiers,omitempty"`
	Life        *sketch.Encoded `json:"life,omitempty"`
	Evict       *sketch.Encoded `json:"evict,omitempty"`
	Adopted     *sketch.Encoded `json:"adopted,omitempty"`
	LifeM       Moments         `json:"lifeM"`
	EvictM      Moments         `json:"evictM"`
}

// StoreSnapshot is a structural copy of (a filtered subset of) a Store.
type StoreSnapshot struct {
	Series []SeriesSnapshot `json:"series,omitempty"`
}

// Snapshot copies every series whose entity passes filter (nil = all) into a
// snapshot. Series are sorted by entity then metric so snapshots of the same
// state are identical — the determinism the simulation harness relies on.
func (s *Store) Snapshot(filter func(entity string) bool) StoreSnapshot {
	return s.SnapshotSince(filter, 0)
}

// SnapshotSince is the bounded form of Snapshot that periodic state sync
// ships: each series is trimmed to the raw samples stamped at or after from,
// and the downsampled tier ladders are omitted — a failover successor needs
// the recent full-resolution window that keeps capacity views fresh, not the
// whole retention ladder. Trimmed samples count toward the snapshot's
// eviction watermark, so windows reaching past the trim are honestly
// reported as truncated after a restore. from <= 0 captures everything
// (identical to Snapshot).
func (s *Store) SnapshotSince(filter func(entity string) bool, from time.Duration) StoreSnapshot {
	var out StoreSnapshot
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, ser := range sh.series {
			if filter != nil && !filter(k.Entity) {
				continue
			}
			out.Series = append(out.Series, snapshotSeries(k, ser, from))
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out.Series, func(i, j int) bool {
		if out.Series[i].Entity != out.Series[j].Entity {
			return out.Series[i].Entity < out.Series[j].Entity
		}
		return out.Series[i].Metric < out.Series[j].Metric
	})
	return out
}

func snapshotSeries(k Key, ser *series, from time.Duration) SeriesSnapshot {
	ss := SeriesSnapshot{
		Entity:      k.Entity,
		Metric:      k.Metric,
		RawCapacity: ser.capacity,
		Gen:         ser.gen,
		Evicted:     ser.evicted,
		LifeM:       ser.lifeM,
		EvictM:      ser.evictM,
	}
	if ser.life != nil && ser.life.Count() > 0 {
		enc := ser.life.Encode()
		ss.Life = &enc
	}
	if ser.evict != nil && ser.evict.Count() > 0 {
		enc := ser.evict.Encode()
		ss.Evict = &enc
	}
	if ser.adopted != nil && ser.adopted.Count() > 0 {
		enc := ser.adopted.Encode()
		ss.Adopted = &enc
	}
	if from > 0 {
		if ser.n > 0 {
			lo := ser.searchAtLeast(from)
			if lo < ser.n {
				ss.Samples = make([]Sample, ser.n-lo)
				for i := lo; i < ser.n; i++ {
					ss.Samples[i-lo] = ser.at(i)
				}
			}
			ss.Evicted += uint64(lo)
		}
		return ss
	}
	if ser.n > 0 {
		ss.Samples = make([]Sample, ser.n)
		for i := 0; i < ser.n; i++ {
			ss.Samples[i] = ser.at(i)
		}
	}
	if len(ser.tiers) > 0 {
		ss.Tiers = make([]TierSnapshot, len(ser.tiers))
		for i := range ser.tiers {
			t := &ser.tiers[i]
			ts := TierSnapshot{Step: t.step, Capacity: t.cap, Pending: bucketToSnapshot(t.pending), Evicted: t.evicted}
			if t.n > 0 {
				ts.Buckets = make([]BucketSnapshot, t.n)
				for j := 0; j < t.n; j++ {
					ts.Buckets[j] = bucketToSnapshot(t.at(j))
				}
			}
			ss.Tiers[i] = ts
		}
	}
	return ss
}

// Restore rebuilds the snapshot's series in the store and returns how many
// were adopted. A series that already exists locally with data at least as
// new as the snapshot's is left alone (the local copy wins), so restoring
// into a hub that kept receiving live monitoring — the shared-hub simulation
// case — is a no-op rather than a rollback. Each restored series gets a
// fresh generation from this store's counter, preserving the "generations
// never repeat" contract for view caches.
func (s *Store) Restore(snap StoreSnapshot) int {
	restored := 0
	for i := range snap.Series {
		if s.restoreSeries(&snap.Series[i]) {
			restored++
		}
	}
	return restored
}

func (s *Store) restoreSeries(ss *SeriesSnapshot) bool {
	if len(ss.Samples) == 0 && len(ss.Tiers) == 0 {
		return false
	}
	sh := s.shardFor(ss.Entity, ss.Metric)
	key := Key{Entity: ss.Entity, Metric: ss.Metric}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if cur, ok := sh.series[key]; ok && cur.n > 0 {
		if len(ss.Samples) == 0 || cur.at(cur.n-1).At >= ss.Samples[len(ss.Samples)-1].At {
			return false
		}
	}
	// The raw capacity is the store's own; the snapshot's RawCapacity came off
	// the wire. Surplus samples keep the newest ones, and the dropped count
	// joins the eviction watermark exactly as a SnapshotSince trim does, so
	// Truncated stays honest.
	samples, evicted := ss.Samples, ss.Evicted
	if drop := len(samples) - s.capacity; drop > 0 {
		samples = samples[drop:]
		evicted += uint64(drop)
	}
	// An encoded lifetime distribution is adopted verbatim, preserving
	// quantiles across the handoff even where the raw window was trimmed. A
	// snapshot that predates the sketches gets a fresh lifetime sketch, so
	// future appends feed it.
	var life *sketch.Sketch
	if ss.Life != nil {
		life = sketch.Decode(*ss.Life)
	}
	ser := s.newSeries(life)
	ser.buf = make([]Sample, len(samples))
	copy(ser.buf, samples)
	ser.n = len(samples)
	// The generation is drawn locally: the wire Gen was issued by another
	// store's counter and could repeat (or wrap) one this store issues.
	ser.gen, ser.evicted, ser.lifeM, ser.evictM = s.samples.Add(1), evicted, ss.LifeM, ss.EvictM
	if ss.Evict != nil {
		ser.evict = sketch.Decode(*ss.Evict)
	}
	if ss.Adopted != nil {
		ser.adopted = sketch.Decode(*ss.Adopted)
	}
	if tiers := s.restoreTiers(ss.Tiers); tiers != nil {
		ser.tiers = tiers
	}
	sh.series[key] = ser
	return true
}

// restoreTiers rebuilds a snapshot's tier ladder. Steps and capacities come
// off the wire, so a ladder the store could not have produced (a
// non-positive or non-ascending step, a non-positive capacity) is refused —
// the series keeps the store's own ladder — and no ring is sized past the
// larger of its shipped buckets and the store's largest tier. It returns nil
// for an empty or refused ladder.
func (s *Store) restoreTiers(tss []TierSnapshot) []tier {
	if len(tss) == 0 {
		return nil
	}
	maxCap := 0
	for _, tc := range s.tiers {
		if tc.Capacity > maxCap {
			maxCap = tc.Capacity
		}
	}
	tiers := make([]tier, len(tss))
	for i, ts := range tss {
		if ts.Step <= 0 || ts.Capacity <= 0 || (i > 0 && ts.Step <= tss[i-1].Step) {
			return nil
		}
		t := tier{step: ts.Step, cap: min(ts.Capacity, max(maxCap, len(ts.Buckets))), pending: ts.Pending.bucket(), evicted: ts.Evicted}
		if len(ts.Buckets) > 0 {
			t.buf = make([]bucket, max(t.cap, len(ts.Buckets)))
			for j, b := range ts.Buckets {
				t.buf[j] = b.bucket()
			}
			t.n = len(ts.Buckets)
		}
		tiers[i] = t
	}
	return tiers
}

// Import re-inserts archived events into the journal PRESERVING their
// original sequence numbers, oldest first. Events whose Seq is not beyond the
// journal's last assigned sequence are skipped, which makes importing the
// same segment twice a no-op — the idempotence a journal-replay bootstrap
// needs when a recovery push races a periodic one. Imported events are
// retained for Replay/Subscribe but are NOT fanned out to observers: they
// already happened, and replaying them into the energy manager or liveness
// sweep would double-apply history. Returns how many events were adopted.
func (j *Journal) Import(evs []Event) int {
	if len(evs) == 0 {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	adopted := 0
	for _, ev := range evs {
		if ev.Seq < j.nextSeq {
			continue
		}
		j.nextSeq = ev.Seq + 1
		if j.n < len(j.buf) {
			j.buf[(j.head+j.n)%len(j.buf)] = ev
			j.n++
		} else {
			j.buf[j.head] = ev
			j.head = (j.head + 1) % len(j.buf)
		}
		adopted++
	}
	return adopted
}

// DetectorEntry is one entity's anomaly-detector state in snapshot form.
type DetectorEntry struct {
	Entity      string        `json:"entity"`
	Condition   string        `json:"condition"`
	LastAnomaly time.Duration `json:"lastAnomaly"`
	Announced   bool          `json:"announced"`
}

// Export copies the detector state of every entity passing filter (nil =
// all), sorted by entity for determinism.
func (d *Detector) Export(filter func(entity string) bool) []DetectorEntry {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []DetectorEntry
	for entity, st := range d.nodes {
		if filter != nil && !filter(entity) {
			continue
		}
		out = append(out, DetectorEntry{
			Entity:      entity,
			Condition:   st.cond.name(),
			LastAnomaly: st.lastAnomaly,
			Announced:   st.announced,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Entity < out[j].Entity })
	return out
}

// Import adopts exported detector state for entities the detector has not
// observed yet (live local state wins), re-arming cooldowns and open-anomaly
// episodes across a handoff so the successor neither re-fires a suppressed
// crossing nor drops the closing node.normal of an announced one.
func (d *Detector) Import(entries []DetectorEntry) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	adopted := 0
	for _, e := range entries {
		if _, ok := d.nodes[e.Entity]; ok {
			continue
		}
		d.nodes[e.Entity] = &detectorState{
			cond:        condFromName(e.Condition),
			lastAnomaly: e.LastAnomaly,
			announced:   e.Announced,
		}
		adopted++
	}
	return adopted
}

func (c nodeCondition) name() string {
	switch c {
	case condOverload:
		return "overload"
	case condUnderload:
		return "underload"
	default:
		return "normal"
	}
}

func condFromName(s string) nodeCondition {
	switch s {
	case "overload":
		return condOverload
	case "underload":
		return condUnderload
	default:
		return condNormal
	}
}

// HubSnapshot bundles everything a successor needs to rebuild a hub's view
// of one GM's world: the owned series, the owner stamps, the detector state,
// and the journal high-water mark the snapshot was cut at (events with
// Seq > BaseSeq form the replay tail).
type HubSnapshot struct {
	At       time.Duration     `json:"at"`
	Store    StoreSnapshot     `json:"store"`
	Owners   map[string]string `json:"owners,omitempty"`
	Detector []DetectorEntry   `json:"detector,omitempty"`
	BaseSeq  uint64            `json:"baseSeq"`
}

// Snapshot captures the hub state attributable to one owning GM: every
// series whose entity is Claim-ed by owner or is the GM's own gm/<id> series,
// the matching owner stamps and detector state, and the journal position.
// An empty owner captures everything (whole-hub snapshot).
func (h *Hub) Snapshot(at time.Duration, owner string) HubSnapshot {
	return h.SnapshotSince(at, owner, 0)
}

// SnapshotSince is Snapshot bounded to recent history: series carry only raw
// samples stamped at or after from, with no tier ladders (see
// Store.SnapshotSince) — the cheap form cut on every state-sync tick.
func (h *Hub) SnapshotSince(at time.Duration, owner string, from time.Duration) HubSnapshot {
	var filter func(string) bool
	owners := map[string]string{}
	if owner != "" {
		self := EntityGMPrefix + owner
		h.ownerMu.RLock()
		for entity, o := range h.owners {
			if o == owner {
				owners[entity] = o
			}
		}
		h.ownerMu.RUnlock()
		filter = func(entity string) bool {
			if entity == self {
				return true
			}
			_, ok := owners[entity]
			return ok
		}
	} else {
		h.ownerMu.RLock()
		for entity, o := range h.owners {
			owners[entity] = o
		}
		h.ownerMu.RUnlock()
	}
	return HubSnapshot{
		At:       at,
		Store:    h.store.SnapshotSince(filter, from),
		Owners:   owners,
		Detector: h.detector.Export(filter),
		BaseSeq:  h.journal.LastSeq(),
	}
}

// Restore applies a snapshot plus its journal tail to the hub: series and
// detector state are adopted where the local hub has nothing fresher, owner
// stamps are re-applied for adopted entities, and the tail events are
// imported seq-preserving (idempotent). Returns the number of series adopted
// and tail events imported.
func (h *Hub) Restore(snap HubSnapshot, tail []Event) (seriesAdopted, eventsImported int) {
	seriesAdopted = h.store.Restore(snap.Store)
	h.detector.Import(snap.Detector)
	if len(snap.Owners) > 0 {
		h.ownerMu.Lock()
		for entity, owner := range snap.Owners {
			if _, ok := h.owners[entity]; !ok {
				h.owners[entity] = owner
			}
		}
		h.ownerMu.Unlock()
	}
	eventsImported = h.journal.Import(tail)
	return seriesAdopted, eventsImported
}

// ValidSample reports whether a measurement is ingestible: finite and
// non-negative. Monitoring flows use it to reject corrupted reports (NaN,
// Inf, negative utilization) before they poison windowed statistics — a NaN
// sample would silently disable every threshold comparison downstream.
func ValidSample(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0
}
