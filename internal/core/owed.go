package core

import (
	"cmp"
	"slices"
	"sort"

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
// filter rejects a dirty entity (or a snapshot omits a live one) whose
// change is newer than the last message planned for that peer that carried
// it, and is dropped only when the peer acknowledges a message that actually
// carried the entity — not when the message is merely planned, because
// planned messages can be lost.
//
// Ownership rules (the determinism/parallelism contract):
//   - One OwedSet per filtered peer, owned by that peer's state. The
//     parallel tick may build many peers' messages concurrently, but never
//     two builds for the same peer — so builds mutate their own OwedSet
//     without synchronization.
//   - Each entry's last is the tick of the newest planned message that
//     included the entity (0 = none since it became owed). AckDrop removes
//     entries only on an exact tick match: an ack for tick T proves receipt
//     of the tick-T message, while an ack for a later tick proves nothing
//     about T (the T message may have been lost on the way).
//
// Representation: entries is one slice ascending by ID. The store's delta
// and snapshot walks (Store.DeltaSinceOwedCands, Store.SnapshotOwedInto)
// merge it with their ascending candidate or live IDs and write the updated
// entries, still ascending, into the swap buffer next, which then becomes
// entries. Every per-entity change during a walk is an O(1) append at the
// cursor, and the walk order is the ID order, so message bytes are
// identical across runs and worker counts. Off-walk updates (AckDrop, mark)
// binary-search the slice.
type OwedSet struct {
	entries []owedEntry
	next    []owedEntry
	sent    []sentRec
}

// owedEntry is one owed entity and the tick of the newest planned message
// that carried it (0 = none since it became owed).
type owedEntry struct {
	id   protocol.ParticipantID
	last uint64
}

// settled marks an entry AckDrop has settled, pending the compaction that
// removes it. No plan tick reaches it.
const settled = ^uint64(0)

// sentRec is one owed entity carried by the message planned at tick,
// awaiting that tick's exact ack. Plan ticks are monotonic, so the list is
// tick-sorted by construction and AckDrop settles an ack with one binary
// search over the handful of in-flight records instead of walking every
// owed entry.
type sentRec struct {
	id   protocol.ParticipantID
	tick uint64
}

// NewOwedSet returns an empty tracker. The slice capacities cover a typical
// interest neighborhood up front so a pooled peer's early ticks don't pay a
// doubling ramp.
func NewOwedSet() *OwedSet {
	return &OwedSet{
		entries: make([]owedEntry, 0, 16),
		next:    make([]owedEntry, 0, 16),
		sent:    make([]sentRec, 0, 16),
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
	o.sent = o.sent[:0]
}

// mark unconditionally (re)opens id's debt. Keyframes use this instead of
// the walk's owe rule: a snapshot replaces the receiver's whole world, so an
// omitted entity is erased there no matter what earlier message carried it —
// the ack of that earlier message must no longer settle the entry. Handoff
// imports use it too.
func (o *OwedSet) mark(id protocol.ParticipantID) {
	if i, ok := o.find(id); ok {
		o.entries[i].last = 0
	} else {
		o.entries = slices.Insert(o.entries, i, owedEntry{id: id})
	}
}

// beginWalk returns the current entries for a merge walk and the emptied
// swap buffer the walk writes the updated entries into.
func (o *OwedSet) beginWalk() (cur, next []owedEntry) {
	return o.entries, o.next[:0]
}

// endWalk installs the walk's output as the live entries and, once the send
// log has piled up stale records (a peer that stopped acking: each re-send
// supersedes the previous one), compacts it to the records that still match
// their entry's newest planned tick. A stale record can never match again —
// its entry's last only moves forward to later plan ticks or back to 0 —
// so dropping it after the walk changes nothing an ack could observe.
func (o *OwedSet) endWalk(cur, next []owedEntry) {
	o.entries, o.next = next, cur
	if n := len(o.sent); n < 256 || n < 4*len(o.entries) {
		return
	}
	w := 0
	for _, rec := range o.sent {
		if i, ok := o.find(rec.id); ok && o.entries[i].last == rec.tick {
			o.sent[w] = rec
			w++
		}
	}
	o.sent = o.sent[:w]
}

// sentAt records that the message planned at tick carries e's current state
// and returns the updated entry. Only owed entries are tracked — an admitted
// entity that was never owed needs no tracking (a lost delta leaves the ack
// floor in place, so the ordinary candidate walk re-includes it).
func (o *OwedSet) sentAt(e owedEntry, tick uint64) owedEntry {
	e.last = tick
	o.sent = append(o.sent, sentRec{id: e.id, tick: tick})
	return e
}

// AckDrop settles every owed entry whose last-included tick exactly matches
// the acknowledged tick: the peer provably received that message and with it
// the entity's then-current state. Any newer change would have re-marked the
// entry (last 0) or been re-included at a later tick, so an exact match
// means the peer is up to date. Regressed or duplicate acks are fine —
// receipt is receipt regardless of arrival order.
func (o *OwedSet) AckDrop(tick uint64) {
	if o == nil || tick == 0 || len(o.sent) == 0 {
		return
	}
	lo := sort.Search(len(o.sent), func(i int) bool { return o.sent[i].tick >= tick })
	hi := lo
	dropped := false
	for hi < len(o.sent) && o.sent[hi].tick == tick {
		rec := o.sent[hi]
		hi++
		if i, ok := o.find(rec.id); ok && o.entries[i].last == tick {
			o.entries[i].last = settled
			dropped = true
		}
		// A mismatched record is stale: a newer change re-marked the entry
		// (last 0) or a later message re-carried it (last > tick), and in
		// either case this ack settles nothing.
	}
	if dropped {
		o.entries = slices.DeleteFunc(o.entries, func(e owedEntry) bool { return e.last == settled })
	}
	// Drop every record at or below the ack floor. A regressed ack for an
	// already-pruned tick then settles nothing — harmless: the entry stays
	// owed and the retransmit gate re-includes it, which is only redundant
	// traffic, never a wrong settle.
	o.sent = o.sent[:copy(o.sent, o.sent[hi:])]
}
