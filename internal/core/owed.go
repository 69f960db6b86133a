package core

import (
	"cmp"
	"slices"

	"metaclass/internal/protocol"
)

// OwedSet tracks, for one interest-filtered peer, the entities whose latest
// change the peer's filter suppressed. It closes the decimation hole in
// plain delta replication: the replicator computes each delta against the
// peer's single ack baseline, so once the peer acks any tick past an
// entity's changedTick, that change can never reappear as a delta candidate
// — if its only send opportunities were ticks where the tier filter rejected
// it, the peer's replica would stay stale forever. An owed entry says "this
// peer may not have the entity's latest state"; it is created whenever the
// filter rejects a dirty entity (or a snapshot omits a live one, or a delta
// lists a re-added entity as removed without carrying it) whose change is
// not older than the last message planned for that peer that carried it,
// and is dropped only when the peer acknowledges a message that actually
// carried the entity — not when the message is merely planned, because
// planned messages can be lost.
//
// Ownership rules (the determinism/parallelism contract):
//   - One OwedSet per filtered peer, owned by that peer's state. The
//     parallel tick may build many peers' messages concurrently, but never
//     two builds for the same peer — so builds mutate their own OwedSet
//     without synchronization.
//   - Each entry's last is the tick of the newest planned message that
//     included the entity (0 = none since it became owed). The peer's send
//     log files each walk's carried IDs with the message, and only the ack
//     of exactly that tick settles them: a later ack proves nothing about a
//     carrier that may have been lost on the way.
//
// Representation: entries is one slice ascending by ID. The store's delta
// and snapshot walks (Store.DeltaSinceOwedCands, Store.SnapshotOwedInto)
// merge it with their ascending candidate or live IDs and write the updated
// entries, still ascending, into the swap buffer next, which then becomes
// entries. Every per-entity change during a walk is an O(1) append at the
// cursor, and the walk order is the ID order, so message bytes are
// identical across runs and worker counts. Off-walk updates (settle, mark)
// binary-search the slice.
type OwedSet struct {
	entries []owedEntry
	next    []owedEntry
	carried []protocol.ParticipantID // owed IDs the latest walk carried, ascending
}

// owedEntry is one owed entity and the tick of the newest planned message
// that carried it (0 = none since it became owed).
type owedEntry struct {
	id   protocol.ParticipantID
	last uint64
}

// settled marks an entry settle has settled, pending the compaction that
// removes it. No plan tick reaches it.
const settled = ^uint64(0)

// NewOwedSet returns an empty tracker. The slice capacities cover a typical
// interest neighborhood up front so a pooled peer's early ticks don't pay a
// doubling ramp.
func NewOwedSet() *OwedSet {
	return &OwedSet{
		entries: make([]owedEntry, 0, 16),
		next:    make([]owedEntry, 0, 16),
		carried: make([]protocol.ParticipantID, 0, 16),
	}
}

// Len returns the number of entities currently owed.
func (o *OwedSet) Len() int {
	if o == nil {
		return 0
	}
	return len(o.entries)
}

// Owes reports whether id is currently owed to the peer.
func (o *OwedSet) Owes(id protocol.ParticipantID) bool {
	if o == nil {
		return false
	}
	_, ok := o.find(id)
	return ok
}

// find binary-searches entries for id.
func (o *OwedSet) find(id protocol.ParticipantID) (int, bool) {
	return slices.BinarySearchFunc(o.entries, id, func(e owedEntry, id protocol.ParticipantID) int {
		return cmp.Compare(e.id, id)
	})
}

// appendIDs appends the owed IDs, ascending, to dst.
func (o *OwedSet) appendIDs(dst []protocol.ParticipantID) []protocol.ParticipantID {
	for _, e := range o.entries {
		dst = append(dst, e.id)
	}
	return dst
}

// Reset clears the set for reuse by another peer (peer state is pooled
// across join/leave churn). The slices keep their capacity.
func (o *OwedSet) Reset() {
	o.entries = o.entries[:0]
	o.carried = o.carried[:0]
}

// mark unconditionally (re)opens id's debt, so no earlier carrier's ack can
// settle it: for a delta that erases a re-added entity at the receiver (see
// deltaOwedFrom), handoff imports and Replicator.Owe.
func (o *OwedSet) mark(id protocol.ParticipantID) {
	if i, ok := o.find(id); ok {
		o.entries[i].last = 0
	} else {
		o.entries = slices.Insert(o.entries, i, owedEntry{id: id})
	}
}

// beginWalk empties carried and returns the current entries for a merge walk
// and the emptied swap buffer the walk writes the updated entries into.
func (o *OwedSet) beginWalk() (cur, next []owedEntry) {
	o.carried = o.carried[:0]
	return o.entries, o.next[:0]
}

// endWalk installs the walk's output as the live entries.
func (o *OwedSet) endWalk(cur, next []owedEntry) {
	o.entries, o.next = next, cur
}

// sentAt records that the message planned at tick carries e's current state
// and returns the updated entry. Only owed entries are tracked — an admitted
// entity that was never owed needs no tracking (a lost delta leaves the ack
// floor in place, or the send log regresses it, so the ordinary candidate
// walk re-includes it).
func (o *OwedSet) sentAt(e owedEntry, tick uint64) owedEntry {
	e.last = tick
	o.carried = append(o.carried, e.id)
	return e
}

// settle drops every entry among ids, the owed IDs the message planned at
// tick carried, whose newest carrier is still that message: the peer
// provably received it, and any newer change would have re-marked the entry
// (last 0) or re-carried it later. A mismatched ID settles nothing.
func (o *OwedSet) settle(ids []protocol.ParticipantID, tick uint64) {
	dropped := false
	for _, id := range ids {
		if i, ok := o.find(id); ok && o.entries[i].last == tick {
			o.entries[i].last = settled
			dropped = true
		}
	}
	if dropped {
		o.entries = slices.DeleteFunc(o.entries, func(e owedEntry) bool { return e.last == settled })
	}
}
