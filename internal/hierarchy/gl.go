package hierarchy

import (
	"fmt"
	"sort"
	"strconv"

	"snooze/internal/obs"
	"snooze/internal/protocol"
	"snooze/internal/scheduling"
	"snooze/internal/scheduling/view"
	"snooze/internal/telemetry"
	"snooze/internal/transport"
	"snooze/internal/types"
)

// This file implements the Group Leader role: GL heartbeats, GM bookkeeping,
// LC→GM assignment and VM submission dispatching (Sections II-A, II-C).

// becomeGLLocked promotes this manager to Group Leader.
func (m *Manager) becomeGLLocked() {
	if m.role == RoleGL {
		return
	}
	m.role = RoleGL
	m.epoch++
	m.mark("gl.promotions", 1)
	m.emit(telemetry.EventGLElected, telemetry.GMEntity(m.cfg.ID),
		telemetry.A("addr", string(m.cfg.Addr)))
	// GM-side state is abandoned: "GL and GMs do not host VMs" and the
	// paper's promoted GM sheds its LCs, which rejoin through the new GL.
	m.lcs = make(map[types.NodeID]*lcRecord)
	m.glAddr = ""
	failPendingLocked(m)
	m.gms = make(map[types.GroupManagerID]*gmRecord)
	m.stopTickersLocked()
	m.addTicker(m.cfg.HeartbeatPeriod, m.glHeartbeatTick)
	m.addTicker(m.cfg.GMTimeout/3, m.glSweepTick)
	// Announce leadership immediately: a fast first heartbeat shortens the
	// healing window after GL failover (Section II-E).
	m.rt.After(0, m.glHeartbeatTick)
}

func failPendingLocked(m *Manager) {
	pending := m.pending
	m.pending = nil
	for _, p := range pending {
		p := p
		m.rt.After(0, func() { p.respond("", false) })
	}
}

// glHeartbeatTick multicasts the GL heartbeat on GroupGL; EPs and unassigned
// LCs listen (Section II-D).
func (m *Manager) glHeartbeatTick() {
	m.mu.Lock()
	if m.role != RoleGL || m.stopped {
		m.mu.Unlock()
		return
	}
	epoch := m.epoch
	m.mu.Unlock()
	hb := protocol.GLHeartbeat{Addr: string(m.cfg.Addr), Epoch: epoch}
	m.bus.Multicast(m.cfg.Addr, protocol.GroupGL, protocol.KindGLHeartbeat, hb)
}

// glSweepTick prunes GMs whose summaries stopped arriving: "GM failures are
// detected by the GL based on missing heartbeats, and its contact
// information is gracefully removed in order to prevent new VMs from being
// scheduled on it" (Section II-E). It also rebalances LC assignments when
// the population is badly skewed (e.g. after autonomic role assignment
// grows the GM population, Section V).
func (m *Manager) glSweepTick() {
	m.mu.Lock()
	if m.role != RoleGL || m.stopped {
		m.mu.Unlock()
		return
	}
	now := m.rt.Now()
	var failedGMs []types.GroupManagerID
	for id, gm := range m.gms {
		if now-gm.lastSeen > m.cfg.GMTimeout {
			delete(m.gms, id)
			failedGMs = append(failedGMs, id)
			m.mark("gl.gm-failures", 1)
		}
	}
	// Rebalance: if the most-loaded GM manages at least 4 more LCs than
	// the least-loaded one, ask it to shed half the difference.
	var minGM, maxGM *gmRecord
	for _, gm := range m.gms {
		n := gm.summary.ActiveLCs + gm.summary.AsleepLCs
		if minGM == nil || n < minGM.summary.ActiveLCs+minGM.summary.AsleepLCs ||
			(n == minGM.summary.ActiveLCs+minGM.summary.AsleepLCs && gm.id < minGM.id) {
			minGM = gm
		}
		if maxGM == nil || n > maxGM.summary.ActiveLCs+maxGM.summary.AsleepLCs ||
			(n == maxGM.summary.ActiveLCs+maxGM.summary.AsleepLCs && gm.id < maxGM.id) {
			maxGM = gm
		}
	}
	var shedAddr transport.Address
	var shedID types.GroupManagerID
	shed := 0
	if minGM != nil && maxGM != nil && minGM != maxGM {
		lo := minGM.summary.ActiveLCs + minGM.summary.AsleepLCs
		hi := maxGM.summary.ActiveLCs + maxGM.summary.AsleepLCs
		if hi-lo >= 4 {
			shed = (hi - lo) / 2
			shedAddr = maxGM.addr
			shedID = maxGM.id
			// Optimistically shrink the summary so the next sweep does not
			// re-issue before fresh summaries arrive.
			maxGM.summary.ActiveLCs -= shed
		}
	}
	m.mu.Unlock()
	sort.Slice(failedGMs, func(i, j int) bool { return failedGMs[i] < failedGMs[j] })
	for _, id := range failedGMs {
		m.emit(telemetry.EventGMFailed, telemetry.GMEntity(id), telemetry.Attrs{})
	}
	if len(failedGMs) > 0 {
		// State-recovering failover: hand each dead GM's archived telemetry
		// to the survivors, which adopt the history of the LCs about to
		// rejoin them (see recovery.go).
		m.glPushArchives(failedGMs)
	}
	if shed > 0 {
		m.mark("gl.rebalances", 1)
		m.emit(telemetry.EventRebalance, telemetry.GMEntity(shedID),
			telemetry.A("shed", fmt.Sprintf("%d", shed)))
		m.bus.Call(m.cfg.Addr, shedAddr, protocol.KindShed, protocol.ShedRequest{Count: shed}, m.cfg.CallTimeout,
			func(any, error) {})
	}
}

// glOnGMJoin enrolls a GM.
func (m *Manager) glOnGMJoin(req *transport.Request) {
	join, ok := req.Payload.(protocol.GMJoinRequest)
	if !ok {
		req.Respond(protocol.GMJoinResponse{})
		return
	}
	m.mu.Lock()
	if m.role != RoleGL || m.stopped {
		m.mu.Unlock()
		req.Respond(protocol.GMJoinResponse{})
		return
	}
	rec, exists := m.gms[join.GM]
	if !exists {
		rec = &gmRecord{id: join.GM}
		m.gms[join.GM] = rec
	}
	rec.addr = transport.Address(join.Addr)
	rec.lastSeen = m.rt.Now()
	m.mu.Unlock()
	m.mark("gl.gm-joins", 1)
	if !exists {
		m.emit(telemetry.EventGMJoin, telemetry.GMEntity(join.GM),
			telemetry.A("addr", join.Addr))
	}
	req.Respond(protocol.GMJoinResponse{Accepted: true})
}

// glOnSummary ingests a GM summary (doubles as GM→GL heartbeat) and feeds
// the per-group telemetry series the summary carries.
func (m *Manager) glOnSummary(req *transport.Request) {
	up, ok := req.Payload.(protocol.SummaryUpdate)
	if !ok {
		return
	}
	m.mu.Lock()
	if m.role != RoleGL || m.stopped {
		m.mu.Unlock()
		return
	}
	rec, exists := m.gms[up.Summary.GM]
	if !exists {
		rec = &gmRecord{id: up.Summary.GM, addr: transport.Address(up.Addr)}
		m.gms[up.Summary.GM] = rec
	}
	rec.summary = up.Summary
	if up.Scheduling != nil {
		rec.scheduling = up.Scheduling
	}
	rec.lastSeen = m.rt.Now()
	m.mu.Unlock()
	// The merged member-util sketch rides every summary, so the group series'
	// quantiles answer over the members' actual utilization distribution
	// instead of over the rollup's group averages. Adoption is monotone by
	// count and happens on every push path, including the rollup skip below —
	// the sketch is precisely the part of the push a shared-hub rollup does
	// NOT already provide.
	if up.UtilSketch != nil {
		if m.tel.Store().AdoptSketch(telemetry.GMEntity(up.Summary.GM), "util", *up.UtilSketch) {
			m.mark("gl.summary-sketch-adoptions", 1)
		}
	}
	// A GM pushing rollups on a hub shared with this GL already appends the
	// gm/<id> series from its own monitoring flow (gmOnMonitor) at heartbeat
	// cadence; re-recording the coarser summary here would double-feed the
	// series. The GM's claim stamp plus an O(1) freshness probe distinguishes
	// that case from a live deployment with per-process hubs, where this
	// record is the series' only feed. The staleness bound keeps the GL
	// recording when a claimed rollup went quiet (a GM whose LCs all left
	// stops ingesting monitor reports, hence stops rolling up).
	if up.Rollup {
		entity := telemetry.GMEntity(up.Summary.GM)
		if owner, ok := m.tel.Owner(entity); ok && owner == string(up.Summary.GM) {
			if sm, ok := m.tel.Store().Newest(entity, "util"); ok && m.rt.Now()-sm.At <= 2*m.cfg.SummaryPeriod {
				m.mark("gl.summary-rollup-skips", 1)
				return
			}
		}
	}
	m.tel.RecordGroup(m.rt.Now(), up.Summary)
}

// glOnLCAssign assigns an LC to a GM. The default policy follows the paper's
// "least loaded GM" suggestion with a deterministic tie-break, so LCs spread
// across GMs as the hierarchy grows (Section II-D).
func (m *Manager) glOnLCAssign(req *transport.Request) {
	_, ok := req.Payload.(protocol.LCAssignRequest)
	if !ok {
		req.RespondErr(errBadPayload)
		return
	}
	m.mu.Lock()
	if m.role != RoleGL || m.stopped || len(m.gms) == 0 {
		m.mu.Unlock()
		req.Respond(protocol.LCAssignResponse{})
		return
	}
	// Least-loaded by managed LC count, then by ID.
	var best *gmRecord
	for _, gm := range m.gms {
		if best == nil {
			best = gm
			continue
		}
		bl := best.summary.ActiveLCs + best.summary.AsleepLCs
		gl := gm.summary.ActiveLCs + gm.summary.AsleepLCs
		if gl < bl || (gl == bl && gm.id < best.id) {
			best = gm
		}
	}
	// Optimistically count the assignment so a burst of joining LCs
	// spreads instead of piling onto one GM before its next summary.
	best.summary.ActiveLCs++
	resp := protocol.LCAssignResponse{GM: best.id, Addr: string(best.addr)}
	m.mu.Unlock()
	m.mark("gl.lc-assignments", 1)
	req.Respond(resp)
}

// glOnSubmit dispatches a VM submission: per VM, the dispatch policy ranks
// candidate GMs from the (inexact) summaries and the GL probes them linearly
// with placement requests (Section II-C).
func (m *Manager) glOnSubmit(req *transport.Request) {
	sub, ok := req.Payload.(protocol.SubmitRequest)
	if !ok {
		req.RespondErr(errBadPayload)
		return
	}
	start := m.rt.Now()
	m.mu.Lock()
	if m.role != RoleGL || m.stopped {
		m.mu.Unlock()
		req.Respond(protocol.SubmitResponse{Unplaced: vmIDs(sub.VMs)})
		return
	}
	m.mu.Unlock()
	m.mark("gl.submissions", int64(len(sub.VMs)))

	resp := protocol.SubmitResponse{Placed: make(map[types.VMID]types.NodeID)}
	if len(sub.VMs) == 0 {
		req.Respond(resp)
		return
	}
	if m.cfg.DispatchBatch > 1 && len(sub.VMs) > 1 {
		m.dispatchBatch(sub.VMs, func(placed map[types.VMID]types.NodeID, unplaced []types.VMID) {
			resp.Placed = placed
			resp.Unplaced = unplaced
			m.observe("gl.submit-latency.seconds", m.rt.Now()-start)
			req.Respond(resp)
		})
		return
	}
	// VMs are dispatched one after another, as in the Snooze GL where a
	// submission's VMs flow through the dispatching policy sequentially;
	// this is what makes submission time scale with the batch size (E1).
	var next func(i int)
	next = func(i int) {
		if i >= len(sub.VMs) {
			m.observe("gl.submit-latency.seconds", m.rt.Now()-start)
			req.Respond(resp)
			return
		}
		spec := sub.VMs[i]
		m.dispatchVM(spec, func(node types.NodeID, ok bool) {
			if ok {
				resp.Placed[spec.ID] = node
			} else {
				resp.Unplaced = append(resp.Unplaced, spec.ID)
			}
			next(i + 1)
		})
	}
	next(0)
}

// dispatchVM runs the GL's linear search over candidate GMs for one VM.
func (m *Manager) dispatchVM(spec types.VMSpec, cb func(node types.NodeID, ok bool)) {
	m.mu.Lock()
	if m.role != RoleGL || m.stopped {
		m.mu.Unlock()
		cb("", false)
		return
	}
	summaries := make([]types.GroupSummary, 0, len(m.gms))
	addrs := make(map[types.GroupManagerID]transport.Address, len(m.gms))
	for _, gm := range m.gms {
		summaries = append(summaries, gm.summary)
		addrs[gm.id] = gm.addr
	}
	sort.Slice(summaries, func(i, j int) bool { return summaries[i].GM < summaries[j].GM })
	// The dispatch decision opens the trace the rest of the chain joins:
	// the chosen GM's placement span links back here via the PlaceRequest's
	// trace attributes.
	span := m.cfg.Tracer.StartTrace(obs.KindDispatch, telemetry.VMEntity(spec.ID))
	span.SetPolicy(m.cfg.Dispatch.Name())
	var ex *scheduling.Explain
	if span.Enabled() {
		ex = &scheduling.Explain{}
	}
	// Dispatch consumes capacity views: the summaries enriched with windowed
	// statistics of each group's util series (fed by glOnSummary).
	groups := m.views.Groups(m.rt.Now(), summaries)
	candidates := m.cfg.Dispatch.Candidates(spec, groups, ex)
	var groupStats map[types.GroupManagerID]view.Stats
	if span.Enabled() {
		groupStats = make(map[types.GroupManagerID]view.Stats, len(groups))
		for _, g := range groups {
			groupStats[g.GM] = g.Stats
		}
	}
	// The policy only ranks; which shortlisted GM wins is decided by the
	// probe loop below. Candidate evidence is therefore recorded at the end,
	// once chosen = the GM whose placement succeeded (empty when none did)
	// and probed = how deep the linear search got.
	recordDispatchCandidates := func(chosen types.GroupManagerID, probed int) {
		if ex == nil {
			return
		}
		probeIndex := make(map[string]int, len(candidates))
		for i, id := range candidates {
			probeIndex[string(id)] = i
		}
		for _, c := range ex.Candidates {
			reason := c.Reason
			if c.ID == string(chosen) {
				span.Candidate(c.ID, true, "")
				continue
			}
			if reason == "" { // shortlisted, not chosen: why not?
				if i, ok := probeIndex[c.ID]; ok && i < probed {
					reason = "place-rejected"
				} else {
					reason = "not-probed"
				}
			}
			span.Candidate(c.ID, false, reason)
		}
	}
	m.mu.Unlock()

	if len(candidates) == 0 {
		m.mark("gl.dispatch-no-candidates", 1)
		recordDispatchCandidates("", 0)
		span.Finish("no-candidates")
		cb("", false)
		return
	}
	sc := span.Context()
	var probe func(i int)
	probe = func(i int) {
		if i >= len(candidates) {
			m.mark("gl.dispatch-exhausted", 1)
			recordDispatchCandidates("", len(candidates))
			span.Finish("exhausted")
			cb("", false)
			return
		}
		addr := addrs[candidates[i]]
		preq := protocol.PlaceRequest{VMs: []types.VMSpec{spec}, TraceID: sc.TraceID, ParentSpan: sc.SpanID}
		m.bus.Call(m.cfg.Addr, addr, protocol.KindPlace, preq, m.cfg.CallTimeout, func(reply any, err error) {
			if err == nil {
				if pr, ok := reply.(protocol.PlaceResponse); ok {
					if node, placed := pr.Placed[spec.ID]; placed {
						m.observeValue("gl.probe-depth", float64(i+1))
						// Optimistically shrink the GM's summary so
						// subsequent dispatches in the same burst see the
						// committed capacity.
						m.mu.Lock()
						if gm, ok := m.gms[candidates[i]]; ok {
							gm.summary.Reserved = gm.summary.Reserved.Add(spec.Requested)
							gm.summary.VMs++
						}
						m.mu.Unlock()
						span.SetTarget(string(candidates[i]))
						if st, ok := groupStats[candidates[i]]; ok {
							span.SetView(st.Gen, st.Samples, st.Fresh, st.Truncated)
						}
						span.Annotate("node", string(node))
						span.Annotate("probe-depth", strconv.Itoa(i+1))
						recordDispatchCandidates(candidates[i], i)
						span.Finish("placed")
						cb(node, true)
						return
					}
				}
			}
			probe(i + 1)
		})
	}
	probe(0)
}

// dispatchBatch coalesces one submission into multi-VM placement requests:
// the group views are built once, every VM is ranked through the dispatch
// policy against that single snapshot, and the VMs are grouped by their
// first-choice GM — one PlaceRequest per GM (chunked at DispatchBatch VMs)
// instead of one probe chain per VM. VMs whose batch the GM rejected fall
// back to the sequential per-VM probe, which walks the full candidate list
// with refreshed views. The batch is ranked largest-first before grouping,
// so under capacity pressure the placement order packs at least as well as
// arrival order (first-fit-decreasing).
//
// Under overcommit (aggregate demand exceeding fleet capacity) largest-first
// admits fewer, larger VMs where arrival order would admit more small ones.
// That is an admission-ordering property of FFD, not a capacity loss —
// callers who care about admitted-VM count rather than admitted resources
// under scarcity should keep DispatchBatch at 1.
func (m *Manager) dispatchBatch(specs []types.VMSpec, done func(placed map[types.VMID]types.NodeID, unplaced []types.VMID)) {
	m.mu.Lock()
	if m.role != RoleGL || m.stopped {
		m.mu.Unlock()
		done(nil, vmIDs(specs))
		return
	}
	summaries := make([]types.GroupSummary, 0, len(m.gms))
	addrs := make(map[types.GroupManagerID]transport.Address, len(m.gms))
	for _, gm := range m.gms {
		summaries = append(summaries, gm.summary)
		addrs[gm.id] = gm.addr
	}
	sort.Slice(summaries, func(i, j int) bool { return summaries[i].GM < summaries[j].GM })
	// One Groups build and one policy pass per VM against the same snapshot
	// replace the sequential path's N rebuilds — the views are equally stale
	// for every VM in the batch, which is exactly the summary inexactness the
	// dispatch policy already tolerates.
	groups := m.views.Groups(m.rt.Now(), summaries)
	// Rank the batch largest-first (decreasing CPU, then memory, ID
	// tie-break): under capacity pressure the placement order decides how
	// well the bins pack, and first-fit-decreasing beats arrival order.
	ranked := append([]types.VMSpec(nil), specs...)
	sort.Slice(ranked, func(i, j int) bool {
		a, b := ranked[i].Requested, ranked[j].Requested
		if a.CPU != b.CPU {
			return a.CPU > b.CPU
		}
		if a.Memory != b.Memory {
			return a.Memory > b.Memory
		}
		return ranked[i].ID < ranked[j].ID
	})
	byGM := make(map[types.GroupManagerID][]types.VMSpec)
	var gmOrder []types.GroupManagerID
	var noCandidates []types.VMID
	for _, spec := range ranked {
		cands := m.cfg.Dispatch.Candidates(spec, groups, nil)
		if len(cands) == 0 {
			noCandidates = append(noCandidates, spec.ID)
			continue
		}
		if _, seen := byGM[cands[0]]; !seen {
			gmOrder = append(gmOrder, cands[0])
		}
		byGM[cands[0]] = append(byGM[cands[0]], spec)
	}
	m.mu.Unlock()
	if n := len(noCandidates); n > 0 {
		m.mark("gl.dispatch-no-candidates", int64(n))
	}

	placed := make(map[types.VMID]types.NodeID, len(specs))
	unplaced := noCandidates
	var fallback []types.VMSpec
	// Fallback runs after every batch response arrived: the optimistic
	// summary updates from the placed VMs are then visible, so the linear
	// probes rank GMs against post-batch capacity.
	runFallback := func() {
		var next func(i int)
		next = func(i int) {
			if i >= len(fallback) {
				done(placed, unplaced)
				return
			}
			spec := fallback[i]
			m.dispatchVM(spec, func(node types.NodeID, ok bool) {
				if ok {
					placed[spec.ID] = node
				} else {
					unplaced = append(unplaced, spec.ID)
				}
				next(i + 1)
			})
		}
		next(0)
	}

	// Chunk each GM's share at DispatchBatch VMs per request and issue all
	// requests concurrently; a channel gate serializes the aggregation.
	type chunk struct {
		gm   types.GroupManagerID
		addr transport.Address
		vms  []types.VMSpec
	}
	var chunks []chunk
	for _, id := range gmOrder {
		vms := byGM[id]
		for len(vms) > 0 {
			n := m.cfg.DispatchBatch
			if n > len(vms) {
				n = len(vms)
			}
			chunks = append(chunks, chunk{gm: id, addr: addrs[id], vms: vms[:n]})
			vms = vms[n:]
		}
	}
	if len(chunks) == 0 {
		runFallback()
		return
	}
	m.mark("gl.dispatch-batches", int64(len(chunks)))
	remaining := len(chunks)
	gate := make(chan struct{}, 1)
	gate <- struct{}{}
	for _, c := range chunks {
		c := c
		// One dispatch trace covers the whole chunk; the GM's per-VM
		// placement spans link back through the request's trace fields.
		span := m.cfg.Tracer.StartTrace(obs.KindDispatch, telemetry.GMEntity(c.gm))
		span.SetPolicy(m.cfg.Dispatch.Name())
		span.SetTarget(string(c.gm))
		span.Annotate("batch", strconv.Itoa(len(c.vms)))
		sc := span.Context()
		preq := protocol.PlaceRequest{VMs: c.vms, TraceID: sc.TraceID, ParentSpan: sc.SpanID}
		m.bus.Call(m.cfg.Addr, c.addr, protocol.KindPlace, preq, m.cfg.CallTimeout, func(reply any, err error) {
			pr, ok := protocol.PlaceResponse{}, false
			if err == nil {
				pr, ok = reply.(protocol.PlaceResponse)
			}
			<-gate
			got := 0
			for _, spec := range c.vms {
				if node, hit := pr.Placed[spec.ID]; ok && hit {
					placed[spec.ID] = node
					got++
					m.mu.Lock()
					if gm, live := m.gms[c.gm]; live {
						gm.summary.Reserved = gm.summary.Reserved.Add(spec.Requested)
						gm.summary.VMs++
					}
					m.mu.Unlock()
				} else {
					fallback = append(fallback, spec)
				}
			}
			remaining--
			last := remaining == 0
			gate <- struct{}{}
			span.Annotate("placed", strconv.Itoa(got))
			switch {
			case got == len(c.vms):
				span.Finish("placed")
			case got > 0:
				span.Finish("partial")
			default:
				span.Finish("rejected")
			}
			if last {
				runFallback()
			}
		})
	}
}

// glOnTopology exports the hierarchy for CLI visualization (Section II-A).
// A deep request fans out to every GM for per-LC detail.
func (m *Manager) glOnTopology(req *transport.Request) {
	tr, _ := req.Payload.(protocol.TopologyRequest) // zero value = shallow
	m.mu.Lock()
	if m.role != RoleGL || m.stopped {
		m.mu.Unlock()
		req.RespondErr(errNotLeader)
		return
	}
	resp := protocol.TopologyResponse{
		GL: string(m.cfg.Addr),
		// The GL's own scheduling configuration travels with the topology;
		// each GM additionally reports its own (via summary pushes), so the
		// export stays truthful when groups run different policies.
		Scheduling: m.schedulingInfo(),
	}
	addrs := make([]transport.Address, 0, len(m.gms))
	for _, gm := range m.gms {
		resp.GMs = append(resp.GMs, protocol.TopologyGM{
			GM: gm.id, Addr: string(gm.addr), Summary: gm.summary, Scheduling: gm.scheduling,
		})
		addrs = append(addrs, gm.addr)
	}
	m.mu.Unlock()
	sort.Slice(resp.GMs, func(i, j int) bool { return resp.GMs[i].GM < resp.GMs[j].GM })
	if !tr.Deep || len(resp.GMs) == 0 {
		req.Respond(resp)
		return
	}
	// Deep export: collect each GM's LC inventory; unreachable GMs simply
	// contribute no detail.
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	remaining := len(resp.GMs)
	gate := make(chan struct{}, 1)
	gate <- struct{}{}
	for i := range resp.GMs {
		i := i
		m.bus.Call(m.cfg.Addr, transport.Address(resp.GMs[i].Addr), protocol.KindLCList, struct{}{}, m.cfg.CallTimeout,
			func(reply any, err error) {
				<-gate
				if err == nil {
					if lr, ok := reply.(protocol.LCListResponse); ok {
						resp.GMs[i].LCs = lr.LCs
					}
				}
				remaining--
				done := remaining == 0
				gate <- struct{}{}
				if done {
					req.Respond(resp)
				}
			})
	}
}

var errNotLeader = fmtErr("hierarchy: not the group leader")

type fmtErr string

func (e fmtErr) Error() string { return string(e) }

// GMCount returns the number of enrolled GMs (GL role instrumentation).
func (m *Manager) GMCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.gms)
}
