package pbft

import (
	"maps"
	"slices"

	"repro/internal/auth"
	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/types"
	"repro/internal/wire"
)

// This file implements the PBFT view-change sub-protocol: replicas that
// suspect the primary broadcast signed VIEW-CHANGE messages carrying their
// stable-checkpoint proof and prepared-batch evidence; the new primary
// assembles 2f+1 of them into a NEW-VIEW that re-proposes every batch that
// may have committed, and every replica independently re-derives and checks
// that computation. The paper delegates this machinery to BASE (§3.2); it is
// reproduced here in full because liveness under a faulty primary depends on
// it.

// startViewChange abandons the current view and campaigns for target.
func (r *Replica) startViewChange(target types.View, now types.Time) {
	if target <= r.view {
		return
	}
	if !r.inViewChange {
		r.vcBegan = now // an escalating campaign keeps its original start
	}
	r.view = target
	r.inViewChange = true
	r.vcAttempts = 0
	r.Metrics.ViewChanges++
	r.om.viewChanges.Inc()
	r.om.view.Set(int64(target))
	r.span(now, obs.StageViewChange, 0, "")
	r.resetQueue()
	r.earlyPP = nil

	vc := r.buildViewChange(target)
	r.sentVC = vc
	r.vcDeadline = now + r.cfg.ViewChangeResend
	r.storeViewChange(vc)
	// The campaign start must be durable before the VIEW-CHANGE leaves:
	// a replica that crashes mid-campaign recovers into the campaign
	// instead of regressing to voting in the view it already abandoned.
	if !r.logView(target, true) || !r.syncVotes() {
		return
	}
	r.broadcast(wire.Marshal(vc))
	r.maybeBuildNewView(now)
}

// buildViewChange assembles this replica's evidence for the new view.
func (r *Replica) buildViewChange(target types.View) *wire.ViewChange {
	var entries []wire.PreparedEntry
	for _, n := range slices.Sorted(maps.Keys(r.insts)) {
		in := r.insts[n]
		if !in.prepared || in.pp == nil || n <= r.lastStable {
			continue
		}
		ent := r.preparedEntry(in)
		if ent == nil {
			continue
		}
		entries = append(entries, *ent)
	}
	vc := &wire.ViewChange{
		NewView:    target,
		LastStable: r.lastStable,
		CkptState:  r.ckpt.Stable().Digest,
		CkptProof:  agreeProof(r.ckpt.Stable()),
		Prepared:   entries,
		Replica:    r.cfg.ID,
	}
	// View changes are forwarded between replicas inside NEW-VIEW messages,
	// i.e. shown to parties that were not their destination: they must be
	// transferably signed, never MAC vectors, whatever ReplicaAuth is.
	att, err := r.cfg.TransferAuth.Attest(auth.KindViewChange, vc.SigningDigest(), r.top.Agreement)
	if err == nil {
		vc.Att = att
	}
	return vc
}

// validateViewChange checks a VIEW-CHANGE end to end: signature, checkpoint
// proof, and every prepared entry's transferable evidence.
func (r *Replica) validateViewChange(m *wire.ViewChange) bool {
	role, _, ok := r.top.RoleOf(m.Replica)
	if !ok || role != types.RoleAgreement || m.Att.Node != m.Replica {
		return false
	}
	if r.cfg.TransferAuth.Verify(auth.KindViewChange, m.SigningDigest(), m.Att) != nil {
		return false
	}
	if m.LastStable > 0 {
		for i := range m.CkptProof {
			c := &m.CkptProof[i]
			if c.Seq != m.LastStable || c.State != m.CkptState || c.Att.Node != c.Replica {
				return false
			}
		}
		if !r.ckpt.Verify(certOf(m)) {
			return false
		}
	}
	for i := range m.Prepared {
		e := &m.Prepared[i]
		if e.Seq <= m.LastStable || e.View >= m.NewView {
			return false
		}
		if !r.verifyPreparedEvidence(e) {
			return false
		}
	}
	return true
}

// certOf is the stable certificate a view change's checkpoint proof carries.
func certOf(m *wire.ViewChange) checkpoint.Cert {
	c := checkpoint.Cert{Seq: m.LastStable, Digest: m.CkptState}
	for i := range m.CkptProof {
		c.Atts = append(c.Atts, m.CkptProof[i].Att)
	}
	return c
}

// verifyPreparedEvidence checks a PreparedEntry's transferable proof that a
// batch prepared somewhere: the view primary's pre-prepare attestation, 2f
// distinct valid backup prepares over the same order digest, and canonical
// nondeterminism. Shared by view-change validation (entries arriving from
// peers) and WAL recovery (entries from the replica's own untrusted disk).
func (r *Replica) verifyPreparedEvidence(e *wire.PreparedEntry) bool {
	od := e.OrderDigest()
	primary := r.top.Primary(e.View)
	if e.PrimaryAtt.Node != primary {
		return false
	}
	if r.certAuth.Verify(auth.KindPrePrepare, od, e.PrimaryAtt) != nil {
		return false
	}
	// 2f distinct valid prepares from backups of that view.
	backups := make(map[types.NodeID]bool, r.n)
	for _, id := range r.top.Agreement {
		if id != primary {
			backups[id] = true
		}
	}
	if auth.CountDistinct(r.certAuth, auth.KindPrepare, od, e.Prepares, backups) < 2*r.f {
		return false
	}
	// The nondeterminism must be the canonical function of (seq, time);
	// it was checked when first prepared, but re-verifying keeps a
	// colluding quorum (or a tampered WAL) from smuggling steered
	// randomness forward.
	return e.ND.Rand == types.ComputeNonDetRand(e.Seq, e.ND.Time)
}

func (r *Replica) storeViewChange(m *wire.ViewChange) {
	byNode := r.vcs[m.NewView]
	if byNode == nil {
		byNode = make(map[types.NodeID]*wire.ViewChange)
		r.vcs[m.NewView] = byNode
	}
	if _, dup := byNode[m.Replica]; !dup {
		byNode[m.Replica] = m
	}
}

func (r *Replica) onViewChange(m *wire.ViewChange, now types.Time) {
	if m.NewView < r.view {
		// Straggler: if we already hold the proof that its target view
		// started, forward it.
		if r.lastNewView != nil && r.lastNewView.View >= m.NewView {
			r.send(m.Replica, wire.Marshal(r.lastNewView))
		}
		return
	}
	if !r.validateViewChange(m) {
		return
	}
	r.storeViewChange(m)

	// A campaign for the view we already completed means the sender missed
	// the NEW-VIEW: resend the proof.
	if m.NewView == r.view && !r.inViewChange && r.lastNewView != nil && r.lastNewView.View == r.view {
		r.send(m.Replica, wire.Marshal(r.lastNewView))
		return
	}

	// Liveness joining rule: once f+1 distinct replicas campaign for views
	// beyond ours, join the smallest such view (at least one correct
	// replica is ahead of us, so waiting cannot help).
	campaigners := make(map[types.NodeID]bool)
	minTarget := types.View(0)
	for v, byNode := range r.vcs {
		if v <= r.view {
			continue
		}
		for id := range byNode {
			campaigners[id] = true
		}
		if minTarget == 0 || v < minTarget {
			minTarget = v
		}
	}
	if len(campaigners) >= r.f+1 && minTarget > r.view {
		r.startViewChange(minTarget, now)
	}
	r.maybeBuildNewView(now)
}

// maybeBuildNewView runs on the would-be primary once 2f+1 view changes for
// the current target view have been collected.
func (r *Replica) maybeBuildNewView(now types.Time) {
	if !r.inViewChange || !r.isPrimary() {
		return
	}
	byNode := r.vcs[r.view]
	if len(byNode) < 2*r.f+1 {
		return
	}
	// Deterministically select 2f+1 view changes (ascending replica id,
	// own first if present).
	selected := make([]wire.ViewChange, 0, 2*r.f+1)
	for _, id := range slices.Sorted(maps.Keys(byNode)) {
		if len(selected) == 2*r.f+1 {
			break
		}
		selected = append(selected, *byNode[id])
	}

	pps, minS, maxS := r.computeNewViewPrePrepares(r.view, selected)
	nv := &wire.NewView{View: r.view, ViewChanges: selected, PrePrepares: pps, Primary: r.cfg.ID}
	// The NEW-VIEW is retransmitted to stragglers in arbitrary later
	// views — transferable signature, like the view changes it carries.
	att, err := r.cfg.TransferAuth.Attest(auth.KindNewView, nv.SigningDigest(), r.top.Agreement)
	if err != nil {
		return
	}
	nv.Att = att
	// The NEW-VIEW externalizes the install and the primary's re-proposal
	// votes for the whole O set: make all of it durable first, under one
	// sync.
	if !r.logView(r.view, false) {
		return
	}
	for i := range pps {
		if !r.logVote(pps[i].View, pps[i].Seq, pps[i].OrderDigest(), wire.VotePrePrepare) {
			return
		}
	}
	if !r.syncVotes() {
		return
	}
	r.broadcast(wire.Marshal(nv))
	r.installNewView(nv, minS, maxS, now)
}

// computeNewViewPrePrepares derives the O set: for every sequence number
// between the highest stable checkpoint (min-s) and the highest prepared
// sequence (max-s), re-propose the prepared batch of the highest view, or a
// null batch if none prepared.
func (r *Replica) computeNewViewPrePrepares(v types.View, vcs []wire.ViewChange) (pps []wire.PrePrepare, minS, maxS types.SeqNum) {
	for i := range vcs {
		if vcs[i].LastStable > minS {
			minS = vcs[i].LastStable
		}
	}
	maxS = minS
	best := make(map[types.SeqNum]*wire.PreparedEntry)
	for i := range vcs {
		for j := range vcs[i].Prepared {
			e := &vcs[i].Prepared[j]
			if e.Seq <= minS {
				continue
			}
			if e.Seq > maxS {
				maxS = e.Seq
			}
			if cur, ok := best[e.Seq]; !ok || e.View > cur.View {
				best[e.Seq] = e
			}
		}
	}
	for n := minS + 1; n <= maxS; n++ {
		pp := wire.PrePrepare{View: v, Seq: n, Primary: r.top.Primary(v)}
		if e, ok := best[n]; ok {
			pp.ND = e.ND
			pp.Requests = e.Requests
		} else {
			// Null batch filler; executors skip empty batches.
			pp.ND = types.NonDet{Time: 0, Rand: types.ComputeNonDetRand(n, 0)}
		}
		pps = append(pps, pp)
	}
	// The (would-be) primary attests each re-proposal so backups can
	// treat them as ordinary pre-prepares in the new view.
	if r.top.Primary(v) == r.cfg.ID {
		for i := range pps {
			att, err := r.cfg.ReplicaAuth.Attest(auth.KindPrePrepare, pps[i].OrderDigest(), r.top.Agreement)
			if err == nil {
				pps[i].Att = att
			}
		}
	}
	return pps, minS, maxS
}

// validateNewView checks a NEW-VIEW end to end: primary attribution and
// transferable signature, the embedded 2f+1 distinct valid VIEW-CHANGEs,
// and digest-for-digest equality of the carried re-proposals against an
// independent recomputation of the O set. Shared by live delivery
// (onNewView) and WAL recovery, where the stored message is untrusted
// input. Returns the O-set sequence bounds on success.
func (r *Replica) validateNewView(m *wire.NewView) (minS, maxS types.SeqNum, ok bool) {
	if m.Primary != r.top.Primary(m.View) || m.Att.Node != m.Primary {
		return 0, 0, false
	}
	if r.cfg.TransferAuth.Verify(auth.KindNewView, m.SigningDigest(), m.Att) != nil {
		return 0, 0, false
	}
	// Validate the 2f+1 view changes.
	seen := make(map[types.NodeID]bool)
	for i := range m.ViewChanges {
		vc := &m.ViewChanges[i]
		if vc.NewView != m.View || seen[vc.Replica] || !r.validateViewChange(vc) {
			return 0, 0, false
		}
		seen[vc.Replica] = true
	}
	if len(seen) < 2*r.f+1 {
		return 0, 0, false
	}
	// Independently recompute O and require digest-for-digest equality.
	var want []wire.PrePrepare
	want, minS, maxS = r.computeNewViewPrePrepares(m.View, m.ViewChanges)
	if len(want) != len(m.PrePrepares) {
		return 0, 0, false
	}
	for i := range want {
		got := &m.PrePrepares[i]
		if got.View != m.View || got.Seq != want[i].Seq || got.Primary != m.Primary {
			return 0, 0, false
		}
		if got.OrderDigest() != want[i].OrderDigest() {
			return 0, 0, false
		}
		if r.certAuth.Verify(auth.KindPrePrepare, got.OrderDigest(), got.Att) != nil || got.Att.Node != m.Primary {
			return 0, 0, false
		}
	}
	return minS, maxS, true
}

func (r *Replica) onNewView(m *wire.NewView, now types.Time) {
	if m.View < r.view || (m.View == r.view && !r.inViewChange) {
		return
	}
	minS, maxS, ok := r.validateNewView(m)
	if !ok {
		return
	}
	// Adopt the new-view checkpoint if it is ahead of ours.
	// validateNewView checked every view change's checkpoint proof.
	if minS > r.lastStable {
		for i := range m.ViewChanges {
			vc := &m.ViewChanges[i]
			if vc.LastStable == minS {
				if r.ckpt.Install(certOf(vc)) {
					r.makeStable()
				}
				break
			}
		}
	}
	r.view = m.View
	r.installNewView(m, minS, maxS, now)
}

// installNewView finalizes the transition for both the new primary and the
// backups: instances are re-created from the O set and backups re-prepare
// them.
func (r *Replica) installNewView(m *wire.NewView, minS, maxS types.SeqNum, now types.Time) {
	r.inViewChange = false
	observeSince(r.om.vcSeconds, r.vcBegan, now)
	r.vcBegan = 0
	r.om.view.Set(int64(r.view))
	r.span(now, obs.StageNewView, 0, "")
	r.lastNewView = m
	r.sentVC = nil
	if maxS > r.nextSeq {
		r.nextSeq = maxS
	}
	if r.lastStable > r.nextSeq {
		r.nextSeq = r.lastStable
	}
	for v := range r.vcs {
		if v <= r.view {
			delete(r.vcs, v)
		}
	}
	// Make the install durable before this replica's first message in the
	// new view (for the new primary maybeBuildNewView already logged it;
	// logView dedups). The NEW-VIEW message itself is logged too, so a
	// post-crash incarnation can still re-serve the proof that the view
	// advanced to peers stuck behind. The backups' re-prepares for the O
	// set are all logged under one sync and broadcast only afterwards. A
	// storage failure fail-stops the install like every other vote path.
	if !r.logView(r.view, false) || !r.logNewView(m) {
		return
	}
	isPrimary := r.isPrimary()
	var preps [][]byte
	for i := range m.PrePrepares {
		pp := m.PrePrepares[i]
		if pp.Seq <= r.lastExec || pp.Seq <= r.lastStable {
			continue
		}
		od := pp.OrderDigest()
		if voteOK, _ := r.mayVote(pp.View, pp.Seq, od); !voteOK {
			continue // already voted in an even newer view for this slot
		}
		r.acceptPrePrepare(&pp, od, now)
		if !isPrimary {
			att, err := r.cfg.ReplicaAuth.Attest(auth.KindPrepare, od, r.top.Agreement)
			if err != nil {
				continue
			}
			if !r.logVote(pp.View, pp.Seq, od, wire.VotePrepare) {
				continue
			}
			in := r.inst(pp.View, pp.Seq)
			in.prepares[r.cfg.ID] = vote{od: od, att: att}
			preps = append(preps, wire.Marshal(&wire.Prepare{View: pp.View, Seq: pp.Seq, OD: od, Replica: r.cfg.ID, Att: att}))
		}
	}
	if r.syncVotes() {
		for _, p := range preps {
			r.broadcast(p)
		}
	}
	// Give the new primary a fresh chance at the buffered client work —
	// but not at requests the new view already covers, which would be
	// double-ordered. "Covered" means executed locally or re-proposed in
	// the O set; lastOrdered alone is not evidence (an equivocating old
	// primary advances it with pre-prepares that never commit).
	covered := make(map[types.NodeID]types.Timestamp)
	for i := range m.PrePrepares {
		for j := range m.PrePrepares[i].Requests {
			req := &m.PrePrepares[i].Requests[j]
			if req.Timestamp > covered[req.Client] {
				covered[req.Client] = req.Timestamp
			}
		}
	}
	// Resubmit in client-ID order: the relay/enqueue order reaches the
	// wire (and the new primary's proposal order), so it must not vary
	// with map iteration across otherwise-identical replicas.
	for _, id := range slices.Sorted(maps.Keys(r.clients)) {
		cs := r.clients[id]
		if cs.pending == nil {
			continue
		}
		if cs.pending.Timestamp <= cs.lastExecuted || cs.pending.Timestamp <= covered[id] {
			cs.pending = nil
			continue
		}
		cs.pendingSince = now
		if isPrimary {
			r.enqueue(cs.pending, now)
		} else {
			r.send(r.primaryID(), wire.Marshal(cs.pending))
		}
	}
	r.maybePropose(now)
	r.executeReady(now)

	// Replay, in sequence order, the new primary's proposals that overtook
	// this NEW-VIEW; onPrePrepare now validates them as usual.
	early := r.earlyPP
	r.earlyPP = nil
	for _, n := range slices.Sorted(maps.Keys(early)) {
		r.onPrePrepare(early[n], now)
	}
}

// holdEarlyPrePrepare keeps a pre-prepare of the view this replica is still
// installing. A new primary proposes as soon as it has sent NEW-VIEW — at
// once when its resubmitted requests close a batch — and that PRE-PREPARE
// can overtake the NEW-VIEW on another link. Dropped, it would be lost: no
// one resends it, and the slot would stall until a request timeout started
// yet another view change. Only attested proposals of the view's primary
// inside the window are held, the first per sequence number, so the buffer
// is bounded by WindowSize. installNewView replays them; startViewChange
// discards them.
func (r *Replica) holdEarlyPrePrepare(m *wire.PrePrepare) {
	if m.Primary != r.primaryID() || m.Att.Node != m.Primary || !r.inWindow(m.Seq) {
		return
	}
	if _, held := r.earlyPP[m.Seq]; held {
		return
	}
	// Checked now so a forgery cannot occupy the slot of the real proposal.
	if r.cfg.ReplicaAuth.Verify(auth.KindPrePrepare, m.OrderDigest(), m.Att) != nil {
		return
	}
	if r.earlyPP == nil {
		r.earlyPP = make(map[types.SeqNum]*wire.PrePrepare)
	}
	r.earlyPP[m.Seq] = m
}

// tickViewChange retransmits campaign messages and escalates to the next
// view if the campaign stalls (doubling timeout, §3.1.2-style backoff).
func (r *Replica) tickViewChange(now types.Time) {
	if !r.inViewChange || r.sentVC == nil {
		return
	}
	if now >= r.vcDeadline {
		r.broadcast(wire.Marshal(r.sentVC))
		r.vcDeadline = now + r.cfg.ViewChangeResend
		r.vcAttempts++
		// If several resends went unanswered, assume the would-be primary
		// is also faulty and campaign for the next view.
		if r.vcAttempts >= 4 {
			r.vcAttempts = 0
			r.startViewChange(r.view+1, now)
		}
	}
}
