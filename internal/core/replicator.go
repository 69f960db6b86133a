package core

import (
	"errors"
	"fmt"
	"sort"

	"metaclass/internal/protocol"
	"metaclass/internal/work"
)

// Replicator errors.
var (
	ErrPeerExists  = errors.New("core: peer already registered")
	ErrUnknownPeer = errors.New("core: unknown peer")
)

// FilterFunc gates which entities a peer receives at a tick (interest
// management hook). A nil FilterFunc admits everything.
type FilterFunc func(id protocol.ParticipantID, tick uint64) bool

// ReplConfig tunes replication behavior. Loss recovery is not among the
// knobs: every replicator runs it (see Replicator.Ack).
type ReplConfig struct {
	// MaxDeltaWindow is the maximum tick distance between a peer's ack and
	// the current tick before the replicator falls back to a full snapshot
	// (bounding both delta size and removal-log growth). Default 150 ticks
	// (5 s at 30 Hz).
	MaxDeltaWindow uint64
	// SnapshotEvery forces a periodic full snapshot even to healthy peers
	// (0 disables). Keyframes bound the damage of undetected state skew.
	SnapshotEvery uint64
	// OwedSettleTicks is how long an entity must sit unchanged before a
	// filtered peer's owed sweep delivers its suppressed change (default 8,
	// the largest interest rate divisor). While an entity keeps changing,
	// each phase-tick send supersedes the suppressed change, so an eager
	// sweep would only duplicate traffic the candidate walk is about to
	// carry anyway; the sweep exists to converge entities that went quiet
	// with their last change unsent. Smaller values converge at-rest
	// entities faster at the cost of redundant sends for moving ones.
	OwedSettleTicks uint64
	// Pool shards PlanTick's independent builds — the filtered per-peer
	// snapshots/deltas and the distinct ack-cohort deltas — across its
	// workers, merging results back in sorted-peer order so the plan is
	// byte-identical at every width. nil or a 1-worker pool runs the same
	// plan with every build inline on the caller's goroutine.
	//
	// With a multi-worker pool, peer filters may be invoked concurrently
	// across peers (never concurrently for the same peer): a filter must read
	// only state that is immutable for the duration of PlanTick plus state
	// owned by its own peer. The store itself is read-only inside PlanTick,
	// as the existing contract already requires.
	Pool *work.Pool
}

func (c *ReplConfig) applyDefaults() {
	if c.MaxDeltaWindow == 0 {
		c.MaxDeltaWindow = 150
	}
	if c.OwedSettleTicks == 0 {
		c.OwedSettleTicks = 8
	}
}

type peerState struct {
	ackTick      uint64
	acked        bool
	lastSnapshot uint64
	snapshots    uint64
	deltas       uint64
	// filter is the peer's interest gate (nil when unfiltered). boundFilter
	// adapts it to the single-argument Store signature, reading the
	// replicator's current plan tick; it is built once per peerState
	// *allocation* and reads filter dynamically, so pooled peer states
	// (join/leave churn) reuse the closure instead of minting one per join.
	filter      FilterFunc
	boundFilter func(protocol.ParticipantID) bool
	// scratch is the reusable per-peer Delta for filtered peers (their
	// payloads are peer-specific, so the message cannot be cohort-shared).
	// Valid until the peer's next planned delta, matching the PlanTick
	// result contract.
	scratch *protocol.Delta
	// snapScratch is the reusable per-peer Snapshot for filtered peers,
	// with the same lifetime contract as scratch.
	snapScratch *protocol.Snapshot
	// owed tracks the entities whose latest change this peer's filter
	// suppressed (nil for unfiltered peers: no filter, no suppression).
	// Owned exclusively by this peer's builds and acks — see OwedSet for
	// the ownership and determinism contract.
	owed *OwedSet
	// sent is the send log: one record per planned message not yet resolved
	// by an ack, ascending by tick. carried holds the owed IDs the records'
	// messages carried, record after record.
	sent    []sentRecord
	carried []protocol.ParticipantID
}

// sentRecord is one outstanding planned message in a peer's send log: the
// message tick, the delta baseline it was built against (unused for
// snapshots), whether it was a full snapshot, and how many owed IDs it
// carried.
type sentRecord struct {
	tick    uint64
	base    uint64
	snap    bool
	carried int
}

// maxSentLog bounds a peer's outstanding send log. A peer silent this long
// is far past MaxDeltaWindow and receiving snapshots; dropping the oldest
// records costs nothing because any snapshot ack restores total coverage,
// and their owed IDs stay owed until the retransmit gate re-sends them.
const maxSentLog = 512

// noteSent logs the message planned at tick with the owed IDs its walk
// carried. Once a peer that stopped acking (each re-send supersedes the
// last) piles up more than max(256, 4 × owed entries) carried IDs, they are
// compacted to those an ack could still settle.
func (p *peerState) noteSent(tick, base uint64, snap bool) {
	if len(p.sent) >= maxSentLog {
		p.popSent(1, p.sent[0].carried)
	}
	rec := sentRecord{tick: tick, base: base, snap: snap}
	if p.owed != nil {
		rec.carried = len(p.owed.carried)
		p.carried = append(p.carried, p.owed.carried...)
	}
	p.sent = append(p.sent, rec)
	if n := len(p.carried); n > 256 && n > 4*p.owed.Len() {
		p.compactCarried()
	}
}

// compactCarried drops every carried ID whose entry's newest carrier is no
// longer its record's message. Such an ID can never settle again (last only
// moves forward or back to 0), so no ack can observe the drop.
func (p *peerState) compactCarried() {
	w, off := 0, 0
	for k := range p.sent {
		rec, start := &p.sent[k], w
		for _, id := range p.carried[off : off+rec.carried] {
			if i, ok := p.owed.find(id); ok && p.owed.entries[i].last == rec.tick {
				p.carried[w] = id
				w++
			}
		}
		off, rec.carried = off+rec.carried, w-start
	}
	p.carried = p.carried[:w]
}

// popSent drops the first n records and the ids carried IDs they hold.
func (p *peerState) popSent(n, ids int) {
	p.sent = p.sent[:copy(p.sent, p.sent[n:])]
	p.carried = p.carried[:copy(p.carried, p.carried[ids:])]
}

// resolveAck pops the send log through tick, settles the owed IDs the acked
// message carried, and returns the baseline the ack actually proves, plus
// whether a possible loss was detected. An ack of a snapshot proves
// everything below its tick. An ack of a delta proves the current floor
// plus that delta's window — contiguous only if no unacked delta with an
// older base was skipped on the way; if one was, its window may be lost in
// flight, so the baseline falls back to the skipped delta's base and the
// next plan re-covers the window. The fallback may lie BELOW the current
// floor: content authored between a tick's plan and the next is stamped
// with the already-planned tick, so the in-order ack of tick T proves
// delivery only through stamp T-1 while the floor reads T — a lost T+1
// strands stamp-T content behind a floor that already passed it, and only a
// regression re-opens the window. Skipped deltas sharing the acked message's
// base need no repair: the acked message carried their whole window again.
// A regressed or duplicate ack finds its record gone and settles nothing;
// the retransmit gate re-sends the debt, redundant but never a wrong settle.
func (p *peerState) resolveAck(tick uint64) (uint64, bool) {
	n, off := 0, 0
	matched, matchedSnap := false, false
	var matchedBase uint64
	skipped, skippedBase := false, uint64(0)
	for n < len(p.sent) && p.sent[n].tick <= tick {
		rec := p.sent[n]
		n++
		if rec.tick == tick {
			matched, matchedSnap, matchedBase = true, rec.snap, rec.base
			p.owed.settle(p.carried[off:off+rec.carried], tick)
		} else if !rec.snap && (!skipped || rec.base < skippedBase) {
			// The oldest skipped base is the only one the repair needs. It
			// need not be the first: a repair lowers the floor, so deltas
			// planned after it carry older bases than those before.
			skipped, skippedBase = true, rec.base
		}
		off += rec.carried
	}
	p.popSent(n, off)
	switch {
	case matched && matchedSnap:
		return tick, false
	case matched && skipped && skippedBase < matchedBase:
		return skippedBase, true
	case !matched && skipped:
		return skippedBase, true
	default:
		return tick, false
	}
}

// reset clears a peer's replication state for reuse while keeping its
// allocated scratch (delta/snapshot entity slices, the bound filter closure),
// so onboarding a client after a departure allocates nothing.
func (p *peerState) reset() {
	p.ackTick, p.acked, p.lastSnapshot = 0, false, 0
	p.snapshots, p.deltas = 0, 0
	p.filter = nil
	if p.scratch != nil {
		p.scratch.Changed = p.scratch.Changed[:0]
		p.scratch.Removed = p.scratch.Removed[:0]
	}
	if p.snapScratch != nil {
		p.snapScratch.Entities = p.snapScratch.Entities[:0]
	}
	if p.owed != nil {
		p.owed.Reset()
	}
	p.sent, p.carried = p.sent[:0], p.carried[:0]
}

// deltaCohort memoizes one distinct delta built during a PlanTick. A nil msg
// records that the delta against this ack baseline was empty.
type deltaCohort struct {
	msg    *protocol.Delta
	cohort int
}

// Replicator plans per-peer replication messages from a Store.
//
// Peers with no interest filter that share the same ack baseline form an
// ack-cohort: PlanTick builds each distinct Snapshot/Delta once per cohort
// and hands the same Message to every member, tagged with a cohort ID so
// callers can also encode each payload exactly once (see PeerMessage.Cohort).
type Replicator struct {
	store *Store
	cfg   ReplConfig
	peers map[string]*peerState

	// planTick is the store tick of the PlanTick in progress; bound filters
	// read it instead of capturing the tick per call.
	planTick uint64

	// sortedIDs caches the sorted peer-ID slice between membership changes.
	sortedIDs []string
	idsDirty  bool

	// plan and deltaCohorts are per-tick scratch, reused across PlanTick
	// calls to keep the hot path allocation-free. cohortScratch recycles the
	// shared cohort Delta messages tick to tick (a cohort message is valid
	// until the next PlanTick, per the result contract), and snapScratch
	// does the same for the shared snapshot cohort's message.
	plan          []PeerMessage
	deltaCohorts  map[uint64]deltaCohort
	cohortScratch []*protocol.Delta
	snapScratch   *protocol.Snapshot

	// pruneDirty defers removal-log pruning to once per PlanTick: acks only
	// record their tick, so a fully-acking classroom costs O(peers) per tick
	// instead of O(peers²) (one O(peers) min-scan per Ack).
	pruneDirty bool

	// prunedTo is the highest tick the removal log has been pruned below.
	// ImportBaseline refuses to honor an ack floor under it: removals at or
	// below a pruned tick are gone from the log, so a delta from such a
	// baseline could silently skip them and leave ghosts on the peer.
	prunedTo uint64

	// freePeers pools peer states released by RemovePeer so a join/leave
	// storm (E11 churn) reuses scratch snapshots, deltas, and filter
	// closures instead of reallocating them per onboarding.
	freePeers []*peerState

	// Plan-pass scratch (see PlanTick): the distinct builds of the tick in
	// first-encounter order, the hoisted job runner (built once so Run
	// allocates nothing), and the tick's delta candidate lists — one per
	// distinct ack base, indexed by candsOf and recycled tick to tick.
	jobs     []planJob
	runJob   func(worker, i int)
	candsOf  map[uint64]int
	candBufs [][]protocol.ParticipantID
}

// planJob is one independent build of a PlanTick: a shared snapshot, a
// filtered peer's snapshot or delta, or a distinct ack-cohort delta. Each
// job writes only its own target message (and a filtered peer's own owed
// set) and only reads its shared candidate list, so jobs are safe to
// execute concurrently.
type planJob struct {
	kind  jobKind
	peer  *peerState               // jobPeerSnap, jobPeerDelta
	base  uint64                   // jobCohortDelta: the cohort's ack baseline
	delta *protocol.Delta          // jobCohortDelta: the cohort's scratch message
	cands []protocol.ParticipantID // jobPeerDelta, jobCohortDelta: changed since the base
}

type jobKind uint8

const (
	jobSharedSnap jobKind = iota
	jobPeerSnap
	jobPeerDelta
	jobCohortDelta
)

// NewReplicator creates a replicator over store.
func NewReplicator(store *Store, cfg ReplConfig) *Replicator {
	cfg.applyDefaults()
	r := &Replicator{
		store:        store,
		cfg:          cfg,
		peers:        make(map[string]*peerState),
		deltaCohorts: make(map[uint64]deltaCohort),
		candsOf:      make(map[uint64]int),
	}
	r.runJob = r.execJob
	return r
}

// AddPeer registers a downstream peer. filter may be nil (no interest
// management — e.g. the peer is another authoritative server needing
// everything).
func (r *Replicator) AddPeer(id string, filter FilterFunc) error {
	if _, ok := r.peers[id]; ok {
		return fmt.Errorf("%w: %s", ErrPeerExists, id)
	}
	var p *peerState
	if n := len(r.freePeers); n > 0 {
		p = r.freePeers[n-1]
		r.freePeers[n-1] = nil
		r.freePeers = r.freePeers[:n-1]
	} else {
		p = &peerState{}
		p.boundFilter = func(eid protocol.ParticipantID) bool { return p.filter(eid, r.planTick) }
	}
	p.filter = filter
	if filter != nil && p.owed == nil {
		p.owed = NewOwedSet()
	}
	r.peers[id] = p
	r.idsDirty = true
	return nil
}

// RemovePeer unregisters a peer. Its state returns to the replicator's pool
// (scratch capacity and filter closure intact) so the next AddPeer is
// allocation-free; the departing peer's ack baseline and filter are cleared.
func (r *Replicator) RemovePeer(id string) error {
	p, ok := r.peers[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownPeer, id)
	}
	delete(r.peers, id)
	p.reset()
	r.freePeers = append(r.freePeers, p)
	r.idsDirty = true
	// A departure can leave the removal log pinned to the departed peer's
	// baseline; re-evaluate the prune floor at the next PlanTick.
	r.pruneDirty = true
	return nil
}

// HasPeer reports whether id is registered.
func (r *Replicator) HasPeer(id string) bool {
	_, ok := r.peers[id]
	return ok
}

// sortedPeerIDs returns the cached sorted peer-ID slice, rebuilding it only
// after membership changes.
func (r *Replicator) sortedPeerIDs() []string {
	if r.idsDirty {
		r.sortedIDs = r.sortedIDs[:0]
		for id := range r.peers {
			r.sortedIDs = append(r.sortedIDs, id)
		}
		sort.Strings(r.sortedIDs)
		r.idsDirty = false
	}
	return r.sortedIDs
}

// Peers returns registered peer IDs, sorted. Each call allocates a fresh
// slice; hot paths should use PeersAppend with a reused buffer instead.
func (r *Replicator) Peers() []string {
	return r.PeersAppend(nil)
}

// PeersAppend appends the registered peer IDs, sorted, to dst and returns
// the extended slice. With a reused dst it allocates nothing, so per-tick
// peer sweeps stay allocation-flat.
func (r *Replicator) PeersAppend(dst []string) []string {
	return append(dst, r.sortedPeerIDs()...)
}

// Ack records that peer has applied the message planned at tick, resolved
// in one pass over the peer's send log (see resolveAck): the owed IDs that
// message carried settle, and the floor advances only to what the log
// proves delivered. A detected skip is the one case that moves the floor
// BACKWARDS (deltas carry latest state, so re-sending never rolls a replica
// back); other regressions are ignored, and so is an ack for a tick the
// store has not reached. Only an ack that advances the floor can raise the
// prune floor, so ignored regressions do not schedule a prune scan.
func (r *Replicator) Ack(peer string, tick uint64) error {
	p, ok := r.peers[peer]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownPeer, peer)
	}
	if tick > r.store.Tick() {
		return nil
	}
	floor, repair := p.resolveAck(tick)
	switch {
	case !p.acked || floor > p.ackTick:
		p.ackTick = floor
		p.acked = true
		r.pruneDirty = true
	case repair && floor < p.ackTick:
		p.ackTick = floor
	}
	return nil
}

// prune trims the store's removal log below the minimum acked tick. It runs
// lazily — once per PlanTick after any Ack — so a tick where every peer acks
// costs one O(peers) scan, not one per Ack. Deferral never changes emitted
// deltas: prunable entries are at or below every peer's baseline, so no
// DeltaSince call could have included them anyway.
func (r *Replicator) prune() {
	if !r.pruneDirty {
		return
	}
	r.pruneDirty = false
	min := r.store.Tick()
	for _, p := range r.peers {
		if !p.acked {
			return // an un-acked peer pins the whole log until its snapshot
		}
		if p.ackTick < min {
			min = p.ackTick
		}
	}
	if min > r.prunedTo {
		r.prunedTo = min
	}
	r.store.PruneRemovals(min)
}

// PeerBaseline is one peer's portable replication position: its delta
// baseline (ack floor) plus the owed-set debt — the entities whose latest
// change the exporter's filter suppressed and the peer has not acknowledged.
// It is what session handoff carries between relays so the importer resumes
// exactly where the exporter stopped instead of opening with a full snapshot.
type PeerBaseline struct {
	AckTick uint64
	Acked   bool
	// Owed lists the owed entity IDs ascending. The exporter's in-flight
	// "sent but unacked" records are flattened back to owed-unsent debt:
	// the frames carrying them may die with the old link, so the importer
	// must treat them as undelivered.
	Owed []protocol.ParticipantID
}

// ExportBaseline captures peer's replication position for handoff. The
// returned slices are freshly allocated (handoff is off the per-tick hot
// path); the peer's live state is not modified, so export can precede the
// RemovePeer that retires the old route.
func (r *Replicator) ExportBaseline(peer string) (PeerBaseline, error) {
	p, ok := r.peers[peer]
	if !ok {
		return PeerBaseline{}, fmt.Errorf("%w: %s", ErrUnknownPeer, peer)
	}
	b := PeerBaseline{AckTick: p.ackTick, Acked: p.acked}
	if p.owed != nil && p.owed.Len() > 0 {
		b.Owed = p.owed.appendIDs(nil)
	}
	return b, nil
}

// ImportBaseline seeds peer's replication position from a baseline exported
// on another node. The ack floor is honored only when this replicator's
// history provably covers it: the floor must lie between the removal-log
// prune horizon and the current store tick, within MaxDeltaWindow. Anything
// else — a floor under pruned removals, a floor ahead of a lagging mirror,
// a floor too old to delta from — falls back to unacked, so the next
// PlanTick opens with a full snapshot (correct, just not incremental).
//
// Owed IDs are re-marked as owed-unsent debt on the importing peer (which
// must be filtered, i.e. registered with a non-nil FilterFunc). Tick domains
// are node-local, so an owed ID whose entity is absent here is marked anyway:
// the owed sweep forgets debts of dead entities on its own.
func (r *Replicator) ImportBaseline(peer string, b PeerBaseline) error {
	p, ok := r.peers[peer]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownPeer, peer)
	}
	tick := r.store.Tick()
	coversFloor := b.Acked && b.AckTick >= r.prunedTo && b.AckTick <= tick &&
		tick-b.AckTick <= r.cfg.MaxDeltaWindow
	// An unfiltered importer has no owed set to carry the debt, and the
	// suppressed changes sit below the floor where no delta resurfaces them;
	// only a snapshot covers that combination.
	if coversFloor && len(b.Owed) > 0 && p.owed == nil {
		coversFloor = false
	}
	if coversFloor {
		p.ackTick, p.acked = b.AckTick, true
		r.pruneDirty = true
	} else {
		p.ackTick, p.acked = 0, false
	}
	if p.owed != nil {
		for _, id := range b.Owed {
			p.owed.mark(id)
		}
	}
	// The send log describes the exporter's traffic; whatever of it was in
	// flight died with the old route, and this node's sends start fresh.
	p.sent, p.carried = p.sent[:0], p.carried[:0]
	return nil
}

// Owe records entity id as owed-unsent debt to a filtered peer, (re)opening
// the debt even if a send was already in flight. Handoff uses it to mark
// state the importing node cannot prove delivered — tick domains are
// node-local, so the transferred floor covers the exporter's history, not
// content skew between the two stores. The owed sweep then converges exactly
// the entities whose delta walk never surfaces them. No-op for unfiltered
// peers (they are always sent everything).
func (r *Replicator) Owe(peer string, id protocol.ParticipantID) error {
	p, ok := r.peers[peer]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownPeer, peer)
	}
	if p.owed != nil {
		p.owed.mark(id)
	}
	return nil
}

// PeerMessage is one planned transmission. Cohort identifies the distinct
// message within one PlanTick result: peers sharing a cohort carry the same
// Msg pointer, so a caller can encode the payload once per cohort and send
// the identical frame to every member. Cohort IDs are dense and ascend in
// first-use order.
type PeerMessage struct {
	Peer   string
	Msg    protocol.Message
	Cohort int
}

// PlanTick builds the replication message for every peer at the store's
// current tick. Peers receive a Snapshot when they have never acked, their
// ack is older than MaxDeltaWindow, or a periodic keyframe is due;
// otherwise a Delta since their ack. Peers with nothing to send (empty
// delta) are skipped.
//
// Unfiltered peers are grouped into ack-cohorts: one shared Snapshot for all
// snapshot-due peers and one shared Delta per distinct ack baseline. Peers
// with an interest filter fall back to per-peer builds (their payloads are
// peer-specific by construction) and get singleton cohorts.
//
// The returned slice and the Messages it shares are valid until the next
// PlanTick call; callers must not mutate shared Messages.
//
// The plan runs in three passes at every pool width:
//
//	1 (owner)  walk sorted peers, decide snapshot-vs-delta, and collect the
//	           distinct builds — the shared snapshot, each filtered peer's
//	           snapshot or delta, and one delta per distinct ack baseline —
//	           as jobs. Build the changed-since candidate list once per
//	           distinct ack base among the delta jobs; every delta job at
//	           that base shares it.
//	2 (pool)   execute the jobs via ReplConfig.Pool (inline as worker 0 on a
//	           nil or 1-worker pool). Each job writes only its own target
//	           message (and its peer's owed set) and reads the shared
//	           candidates; the store is read-only and its lazy sorted-ID
//	           cache is warmed first.
//	3 (owner)  re-walk sorted peers, re-deriving the same decisions (nothing
//	           they depend on moved in pass 2), assigning cohort IDs in
//	           first-use order, bumping the per-peer counters and filing
//	           each planned message in its peer's send log.
//
// Only pass 2 depends on the pool, and its jobs are independent, so the
// result — ordering, message contents, cohort numbering, counters, send
// logs — is byte-identical at every worker count and job scheduling order.
func (r *Replicator) PlanTick() []PeerMessage {
	tick := r.store.Tick()
	r.planTick = tick
	r.prune()

	// Pass 1: collect the distinct builds.
	jobs := r.jobs[:0]
	clear(r.deltaCohorts)
	clear(r.candsOf)
	cohortJobs := 0
	sharedSnapQueued := false
	for _, id := range r.sortedPeerIDs() {
		p := r.peers[id]
		if r.snapshotDue(p, tick) {
			if p.filter != nil {
				if p.snapScratch == nil {
					p.snapScratch = &protocol.Snapshot{}
				}
				jobs = append(jobs, planJob{kind: jobPeerSnap, peer: p})
			} else if !sharedSnapQueued {
				sharedSnapQueued = true
				if r.snapScratch == nil {
					r.snapScratch = &protocol.Snapshot{}
				}
				jobs = append(jobs, planJob{kind: jobSharedSnap})
			}
			continue
		}
		if p.filter != nil {
			if p.scratch == nil {
				p.scratch = &protocol.Delta{}
			}
			jobs = append(jobs, planJob{kind: jobPeerDelta, peer: p, cands: r.candsFor(p.ackTick)})
			continue
		}
		if _, ok := r.deltaCohorts[p.ackTick]; !ok {
			slot := r.cohortSlot(cohortJobs)
			cohortJobs++
			r.deltaCohorts[p.ackTick] = deltaCohort{msg: slot, cohort: cohortUnnumbered}
			jobs = append(jobs, planJob{kind: jobCohortDelta, base: p.ackTick, delta: slot, cands: r.candsFor(p.ackTick)})
		}
	}
	r.jobs = jobs

	// Pass 2: execute the builds on the pool. Warm the store's lazy
	// sorted-ID cache first so concurrent scans only read it.
	r.store.sortedIDs()
	r.cfg.Pool.Run(len(jobs), r.runJob)

	// Pass 3: merge in sorted-peer order, numbering cohorts in first-use
	// order and updating counters and send logs over the prebuilt messages.
	out := r.plan[:0]
	sharedSnapCohort := cohortUnnumbered
	nextCohort := 0
	for _, id := range r.sortedPeerIDs() {
		p := r.peers[id]
		if r.snapshotDue(p, tick) {
			var snap *protocol.Snapshot
			var cohort int
			if p.filter != nil {
				snap = p.snapScratch
				cohort = nextCohort
				nextCohort++
			} else {
				if sharedSnapCohort == cohortUnnumbered {
					sharedSnapCohort = nextCohort
					nextCohort++
				}
				snap = r.snapScratch
				cohort = sharedSnapCohort
			}
			p.lastSnapshot = tick
			p.snapshots++
			p.noteSent(tick, p.ackTick, true)
			out = append(out, PeerMessage{Peer: id, Msg: snap, Cohort: cohort})
			continue
		}
		if p.filter != nil {
			if len(p.scratch.Changed) == 0 && len(p.scratch.Removed) == 0 {
				continue
			}
			p.deltas++
			p.noteSent(tick, p.ackTick, false)
			out = append(out, PeerMessage{Peer: id, Msg: p.scratch, Cohort: nextCohort})
			nextCohort++
			continue
		}
		dc := r.deltaCohorts[p.ackTick]
		if dc.cohort == cohortUnnumbered {
			if len(dc.msg.Changed) == 0 && len(dc.msg.Removed) == 0 {
				dc.msg, dc.cohort = nil, cohortEmpty
			} else {
				dc.cohort = nextCohort
				nextCohort++
			}
			r.deltaCohorts[p.ackTick] = dc
		}
		if dc.msg == nil {
			continue
		}
		p.deltas++
		p.noteSent(tick, p.ackTick, false)
		out = append(out, PeerMessage{Peer: id, Msg: dc.msg, Cohort: dc.cohort})
	}
	r.plan = out
	return out
}

// snapshotDue reports whether p gets a full snapshot at tick: it has never
// acked, its ack is older than MaxDeltaWindow, or a periodic keyframe is due.
func (r *Replicator) snapshotDue(p *peerState, tick uint64) bool {
	return !p.acked ||
		tick-p.ackTick > r.cfg.MaxDeltaWindow ||
		(r.cfg.SnapshotEvery > 0 && tick-p.lastSnapshot >= r.cfg.SnapshotEvery)
}

// cohortSlot returns the i-th recycled shared-cohort Delta, growing the
// scratch pool as needed. The planner assigns one slot per distinct ack
// baseline up front (emptiness is unknown until the build runs); an empty
// build never enters the plan, and its slot is reused next tick.
func (r *Replicator) cohortSlot(i int) *protocol.Delta {
	for len(r.cohortScratch) <= i {
		r.cohortScratch = append(r.cohortScratch, &protocol.Delta{})
	}
	return r.cohortScratch[i]
}

// Sentinel cohort values used between the planner's passes: a
// cohort built but not yet numbered, and a cohort whose build came back
// empty (no message planned for its members).
const (
	cohortUnnumbered = -1
	cohortEmpty      = -2
)

// candsFor returns the tick's shared candidate list for ack base, building
// it into a recycled buffer on first use.
func (r *Replicator) candsFor(base uint64) []protocol.ParticipantID {
	if i, ok := r.candsOf[base]; ok {
		return r.candBufs[i]
	}
	i := len(r.candsOf)
	if i == len(r.candBufs) {
		r.candBufs = append(r.candBufs, nil)
	}
	r.candBufs[i] = r.store.candidatesSince(base, r.candBufs[i])
	r.candsOf[base] = i
	return r.candBufs[i]
}

// execJob runs one plan build. Jobs write only their own target message
// (and a filtered peer's own owed set), honoring the pool's ownership rules
// (see package work).
func (r *Replicator) execJob(_, i int) {
	j := &r.jobs[i]
	switch j.kind {
	case jobSharedSnap:
		r.store.SnapshotInto(nil, r.snapScratch)
	case jobPeerSnap:
		r.store.SnapshotOwedInto(j.peer.boundFilter, j.peer.snapScratch, j.peer.owed)
	case jobPeerDelta:
		p := j.peer
		r.store.deltaOwedFrom(p.ackTick, j.cands, p.boundFilter, p.scratch, p.owed, p.ackTick, r.cfg.OwedSettleTicks)
	case jobCohortDelta:
		r.store.deltaFrom(j.base, j.cands, nil, j.delta)
	}
}

// PeerStats reports replication counters for a peer.
type PeerStats struct {
	AckTick   uint64
	Acked     bool
	Snapshots uint64
	Deltas    uint64
	// Owed is the number of entities whose latest change the peer's interest
	// filter has suppressed and that the peer has not yet acknowledged
	// receiving (always 0 for unfiltered peers).
	Owed int
}

// StatsOf returns counters for one peer.
func (r *Replicator) StatsOf(peer string) (PeerStats, error) {
	p, ok := r.peers[peer]
	if !ok {
		return PeerStats{}, fmt.Errorf("%w: %s", ErrUnknownPeer, peer)
	}
	return PeerStats{AckTick: p.ackTick, Acked: p.acked, Snapshots: p.snapshots, Deltas: p.deltas, Owed: p.owed.Len()}, nil
}
