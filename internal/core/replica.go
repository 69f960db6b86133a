package core

import (
	"time"

	"metaclass/internal/mathx"
	"metaclass/internal/metrics"
	"metaclass/internal/pose"
	"metaclass/internal/protocol"
)

// Replica is the receiver side of the sync engine: it applies Snapshot and
// Delta messages from one upstream peer into a local Store and maintains a
// playout (interpolation) buffer per remote participant so displays render
// smooth motion between network updates.
type Replica struct {
	store    *Store
	entities map[protocol.ParticipantID]*entity
	delay    time.Duration
	extrap   pose.Extrapolator

	// OnNew fires when a participant first appears (seat assignment hook).
	OnNew func(e protocol.EntityState)
	// OnRemove fires when a participant is removed.
	OnRemove func(id protocol.ParticipantID)
	// Latency, if set, records capture-to-apply age of every entity update.
	Latency *metrics.Histogram
	// RetainOmitted keeps an entity (store record, playout buffer, latency
	// watermark) when a Snapshot omits it instead of dropping everything.
	// Set it when the upstream filters snapshots by interest: an omitted
	// entity is merely out of the interest tier, not departed, so it stays
	// enumerable, the display keeps extrapolating it, and its buffer must
	// not churn when it flickers back in. OnRemove is not fired for
	// omissions. True departures still arrive as Delta removals, which
	// always drop the buffer — and a retained entity whose updates stay
	// silent past RetainFor (a pruned removal the snapshot could not convey)
	// is expired on a later apply, so ghosts cannot accumulate.
	RetainOmitted bool
	// RetainFor bounds how long a retained entity may stay capture-silent
	// before it is presumed departed and dropped (default 2s — the same
	// horizon edge servers use to despawn silent local participants). Live
	// entities in the rate-divided interest tiers (focus through ambient)
	// never hit it; a fully culled live entity is indistinguishable from a
	// departed one (both are silent) and expires too — the same drop the
	// pre-retention code made immediately, just TTL-delayed — and is
	// rebuilt normally if it re-enters interest range.
	RetainFor time.Duration

	applied    uint64
	rejected   uint64
	snapshots  uint64
	bufCreates uint64
	bufDrops   uint64
	retained   uint64

	// knownScratch is the reusable present-in-snapshot set; retainScratch
	// carries retained entities' states across ApplySnapshot's store
	// rebuild.
	knownScratch  map[protocol.ParticipantID]bool
	retainScratch []protocol.EntityState
	// retaining lists the entities currently retained through snapshot
	// omission (each record knows its slot), so expireRetained visits only
	// them and does nothing in steady state.
	retaining []*entity
	// free recycles entity records. Records are carved from slabs (one
	// []entity plus one shared []pose.Pose backing for their rings), built
	// lazily on the first entity, so a cold join into a large world costs a
	// few slab allocations instead of one buffer and ring per entity, churn
	// after the join recycles instead of reallocating, and an idle replica
	// allocates nothing.
	free []*entity
}

// entity is a replica's per-participant record: everything the receive path
// keeps beside the store, found with one map lookup per update.
type entity struct {
	id  protocol.ParticipantID
	buf pose.InterpBuffer
	// captured is the newest CapturedAt applied: the latency watermark and
	// the retention clock.
	captured time.Duration
	// retainSlot is 1 + the record's index in Replica.retaining while the
	// entity is retained through a snapshot omission, 0 otherwise.
	retainSlot int
}

const (
	// ringCap is the playout ring size of every replicated entity.
	ringCap = 64
	// entitySlab is the minimum number of entity records carved at once.
	entitySlab = 64
)

// NewReplica creates a replica whose playout buffers render delay behind
// live using extrap beyond the newest sample (nil = linear dead reckoning).
func NewReplica(delay time.Duration, extrap pose.Extrapolator) *Replica {
	if extrap == nil {
		extrap = pose.Linear{}
	}
	return &Replica{
		store:    NewStore(),
		entities: make(map[protocol.ParticipantID]*entity),
		delay:    delay,
		extrap:   extrap,
	}
}

// Store exposes the replica's current entity state.
func (r *Replica) Store() *Store { return r.store }

// Apply ingests a replication message at virtual time now. It returns the
// tick to acknowledge and whether the message was applied (false means a
// delta gap: do not ack; the sender will fall back to a snapshot).
func (r *Replica) Apply(msg protocol.Message, now time.Duration) (uint64, bool) {
	switch m := msg.(type) {
	case *protocol.Snapshot:
		if r.knownScratch == nil {
			r.knownScratch = make(map[protocol.ParticipantID]bool, len(m.Entities))
		}
		known := r.knownScratch
		clear(known)
		for i := range m.Entities {
			known[m.Entities[i].Participant] = true
		}
		// Entities absent from the snapshot are gone — unless the upstream
		// filters by interest, in which case they are carried across the
		// store rebuild and keep extrapolating.
		r.retainScratch = r.retainScratch[:0]
		for _, id := range r.store.IDs() {
			if !known[id] {
				if r.RetainOmitted {
					r.retained++
					if e := r.entities[id]; e != nil && e.retainSlot == 0 {
						r.retaining = append(r.retaining, e)
						e.retainSlot = len(r.retaining)
					}
					if e, ok := r.store.Get(id); ok {
						r.retainScratch = append(r.retainScratch, e)
					}
					continue
				}
				r.dropEntity(id)
			}
		}
		for i := range m.Entities {
			r.noteEntity(m.Entities[i], now)
		}
		r.store.ApplySnapshot(m)
		for _, e := range r.retainScratch {
			r.store.Upsert(e)
		}
		r.expireRetained(now)
		r.snapshots++
		r.applied++
		return m.Tick, true
	case *protocol.Delta:
		if m.Tick <= r.store.Tick() {
			// Stale duplicate: ack our current position, apply nothing.
			r.applied++
			return r.store.Tick(), true
		}
		if !r.store.ApplyDelta(m) {
			r.rejected++
			return 0, false
		}
		// Removals first, mirroring ApplyDelta: an entity removed and
		// re-added within the delta window is in both lists, and must end up
		// present — with a fresh playout buffer (it left and rejoined; the
		// old interpolation history must not bridge the gap).
		for _, id := range m.Removed {
			r.dropEntity(id)
		}
		for i := range m.Changed {
			r.noteEntity(m.Changed[i], now)
		}
		r.expireRetained(now)
		r.applied++
		return m.Tick, true
	default:
		r.rejected++
		return 0, false
	}
}

func (r *Replica) noteEntity(s protocol.EntityState, now time.Duration) {
	e := r.entities[s.Participant]
	fresh := e == nil
	if fresh {
		e = r.newEntity(s.Participant)
		r.entities[s.Participant] = e
		r.bufCreates++
		if r.OnNew != nil {
			r.OnNew(s)
		}
	}
	if e.retainSlot != 0 {
		r.unretain(e) // an update ends the omission
	}
	pos, rot := s.Pose.Dequantize()
	e.buf.Push(pose.Pose{
		Time:     s.CapturedAt,
		Position: pos,
		Rotation: rot,
		Velocity: mathx.V3(
			float64(s.VelMMS[0])/1000, float64(s.VelMMS[1])/1000, float64(s.VelMMS[2])/1000,
		),
	})
	// Latency accounting covers fresh information only: redelivery of an
	// entity whose capture stamp has not advanced (snapshot keyframes,
	// mirror re-sends) says nothing about pipeline freshness.
	if fresh || s.CapturedAt > e.captured {
		e.captured = s.CapturedAt
		if r.Latency != nil {
			r.Latency.Observe(now - s.CapturedAt)
		}
	}
}

// newEntity takes a record from the free list, carving a new slab when it is
// empty.
func (r *Replica) newEntity(id protocol.ParticipantID) *entity {
	if len(r.free) == 0 {
		n := max(cap(r.free), entitySlab)
		recs := make([]entity, n)
		rings := make([]pose.Pose, n*ringCap)
		for i := range recs {
			recs[i].buf.Init(r.delay, rings[i*ringCap:(i+1)*ringCap:(i+1)*ringCap], r.extrap)
			r.free = append(r.free, &recs[i])
		}
	}
	e := r.free[len(r.free)-1]
	r.free[len(r.free)-1] = nil
	r.free = r.free[:len(r.free)-1]
	e.id = id
	return e
}

// unretain removes e from the retained list.
func (r *Replica) unretain(e *entity) {
	i := e.retainSlot - 1
	last := r.retaining[len(r.retaining)-1]
	r.retaining[i] = last
	last.retainSlot = i + 1
	r.retaining[len(r.retaining)-1] = nil
	r.retaining = r.retaining[:len(r.retaining)-1]
	e.retainSlot = 0
}

func (r *Replica) dropEntity(id protocol.ParticipantID) {
	e, ok := r.entities[id]
	if !ok {
		return
	}
	if e.retainSlot != 0 {
		r.unretain(e)
	}
	delete(r.entities, id)
	e.buf.Reset()
	r.free = append(r.free, e)
	r.bufDrops++
	if r.OnRemove != nil {
		r.OnRemove(id)
	}
}

// expireRetained drops retained entities whose updates have been silent past
// RetainFor: their removal was conveyed only by snapshot omission (the
// sender pruned it from the delta log), so without this sweep they would
// dead-reckon as ghosts forever. Runs on every apply; the retained list is
// empty in steady state. Iteration order is irrelevant — each entity's
// verdict depends only on its own watermark.
func (r *Replica) expireRetained(now time.Duration) {
	if len(r.retaining) == 0 {
		return
	}
	ttl := r.RetainFor
	if ttl <= 0 {
		ttl = 2 * time.Second
	}
	// Backwards, so the swap-remove in dropEntity only moves records this
	// sweep has already judged.
	for i := len(r.retaining) - 1; i >= 0; i-- {
		if e := r.retaining[i]; now-e.captured > ttl {
			r.store.removeSilent(e.id)
			r.dropEntity(e.id)
		}
	}
}

// Pose samples the replicated participant's pose for display at time at
// (in the entity's source frame; callers apply seat corrections).
func (r *Replica) Pose(id protocol.ParticipantID, at time.Duration) (pose.Pose, bool) {
	e, ok := r.entities[id]
	if !ok {
		return pose.Pose{}, false
	}
	return e.buf.Sample(at)
}

// Participants lists replicated participant IDs, ascending.
func (r *Replica) Participants() []protocol.ParticipantID { return r.store.IDs() }

// ReplicaStats reports apply accounting. BufferCreates/BufferDrops expose
// playout-buffer churn (a create after a drop of the same entity means the
// interpolation history was lost); Retained counts snapshot omissions that
// kept their buffer under RetainOmitted.
type ReplicaStats struct {
	Applied       uint64
	Rejected      uint64
	Snapshots     uint64
	BufferCreates uint64
	BufferDrops   uint64
	Retained      uint64
}

// Stats returns counters.
func (r *Replica) Stats() ReplicaStats {
	return ReplicaStats{
		Applied: r.applied, Rejected: r.rejected, Snapshots: r.snapshots,
		BufferCreates: r.bufCreates, BufferDrops: r.bufDrops, Retained: r.retained,
	}
}
