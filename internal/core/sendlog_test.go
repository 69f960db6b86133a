package core

import (
	"slices"
	"testing"

	"metaclass/internal/protocol"
)

// lateAckLink carries one peer's messages to a receiver store and its acks
// back one tick late: the ack of the message planned at T reaches the
// replicator after the plan of T+1. A delta the receiver cannot apply (a
// gap) is not acked.
type lateAckLink struct {
	t       *testing.T
	repl    *Replicator
	peer    string
	recv    *Store
	pending []uint64 // acks sent by the receiver, not yet delivered
}

// plan runs one PlanTick, applies every message for the peer unless lose is
// set, and then delivers the acks the receiver sent on the previous tick.
func (l *lateAckLink) plan(lose bool) {
	l.t.Helper()
	var sent []uint64
	for _, pm := range l.repl.PlanTick() {
		if pm.Peer != l.peer || lose {
			continue
		}
		switch m := pm.Msg.(type) {
		case *protocol.Snapshot:
			l.recv.ApplySnapshot(m)
			sent = append(sent, m.Tick)
		case *protocol.Delta:
			if l.recv.ApplyDelta(m) {
				sent = append(sent, m.Tick)
			}
		}
	}
	for _, tick := range l.pending {
		if err := l.repl.Ack(l.peer, tick); err != nil {
			l.t.Fatal(err)
		}
	}
	l.pending = sent
}

// posX is an entity whose pose reads x.
func posX(id protocol.ParticipantID, x int64) protocol.EntityState {
	return protocol.EntityState{Participant: id, Pose: protocol.WirePose{PosMM: [3]int64{x, 0, 0}}}
}

// TestOwedPostPlanWriteAtCarrierTickDelivered pins the owe rule for a write
// that lands after the plan of the tick whose message carried the entity:
// it is stamped with that tick, so the carrier's ack must not settle the
// debt. The peer admits the entity on even ticks only and acks one tick
// late: tick 2's snapshot carries pose 2, pose 3 lands after that plan, and
// tick 3's filter rejects the entity while the ack of tick 2 is in flight.
func TestOwedPostPlanWriteAtCarrierTickDelivered(t *testing.T) {
	const id = protocol.ParticipantID(1)
	store := NewStore()
	repl := NewReplicator(store, ReplConfig{})
	evenTicks := func(_ protocol.ParticipantID, tick uint64) bool { return tick%2 == 0 }
	if err := repl.AddPeer("recv", evenTicks); err != nil {
		t.Fatal(err)
	}
	link := &lateAckLink{t: t, repl: repl, peer: "recv", recv: NewStore()}

	store.BeginTick() // tick 1
	store.Upsert(posX(id, 1))
	link.plan(false)
	store.BeginTick() // tick 2
	store.Upsert(posX(id, 2))
	link.plan(false)
	store.Upsert(posX(id, 3)) // after tick 2's plan: stamped 2

	for i := 0; i < 40; i++ {
		store.BeginTick()
		link.plan(false)
	}
	got, ok := link.recv.Get(id)
	if !ok {
		t.Fatal("entity missing at the receiver")
	}
	if x := got.Pose.PosMM[0]; x != 3 {
		t.Fatalf("receiver holds pose %d, want 3 (the carrier of pose 2 settled the debt for pose 3)", x)
	}
	if st, _ := repl.StatsOf("recv"); st.Owed != 0 {
		t.Errorf("owed = %d after convergence, want 0", st.Owed)
	}
}

// TestLostCarrierResentByDefault pins loss recovery in the default config
// for an unfiltered peer that acks one tick late. A write that lands after
// tick T's plan is stamped T, so only delta T+1 — built against the floor
// T-1 — carries it. That delta is lost. The ack of T then lifts the floor to
// T, past the write's stamp, and delta T+2 applies cleanly without it: only
// the ack of T+2, which skips the lost T+1, can reveal the loss.
func TestLostCarrierResentByDefault(t *testing.T) {
	const (
		ticker = protocol.ParticipantID(1) // changes every tick: deltas never empty
		writer = protocol.ParticipantID(2)
	)
	store := NewStore()
	repl := NewReplicator(store, ReplConfig{})
	if err := repl.AddPeer("recv", nil); err != nil {
		t.Fatal(err)
	}
	link := &lateAckLink{t: t, repl: repl, peer: "recv", recv: NewStore()}
	step := func(lose bool) {
		tick := store.BeginTick()
		store.Upsert(posX(ticker, int64(tick)))
		link.plan(lose)
	}

	store.BeginTick()
	store.Upsert(posX(writer, 1))
	link.plan(false)
	for i := 0; i < 4; i++ {
		step(false)
	}
	store.Upsert(posX(writer, 2)) // after tick T's plan: stamped T
	step(true)                    // T+1: the only carrier of the write, lost
	for i := 0; i < 10; i++ {
		step(false)
	}
	got, ok := link.recv.Get(writer)
	if !ok {
		t.Fatal("writer missing at the receiver")
	}
	if x := got.Pose.PosMM[0]; x != 2 {
		t.Fatalf("receiver holds writer pose %d, want 2 (the write died with its only carrier)", x)
	}
}

// TestSendLogBoundedForSilentPeer pins the send log's memory bound for a
// filtered peer that never acks: every tick is a snapshot, and an entity
// admitted on alternate ticks is carried every other tick, so unbounded, the
// log would hold all 2,000 plans and their ~200,000 carried IDs. The log
// keeps at most maxSentLog records and the carried IDs stay within
// max(256, 4 × owed entries), and compaction keeps every ID an ack could
// still settle: the ack of the newest snapshot settles every entity it
// carried.
func TestSendLogBoundedForSilentPeer(t *testing.T) {
	const n = 200
	store := NewStore()
	repl := NewReplicator(store, ReplConfig{})
	alternate := func(id protocol.ParticipantID, tick uint64) bool { return (uint64(id)+tick)%2 == 0 }
	if err := repl.AddPeer("recv", alternate); err != nil {
		t.Fatal(err)
	}
	peer := repl.peers["recv"]
	store.BeginTick()
	for id := protocol.ParticipantID(0); id < n; id++ {
		store.Upsert(posX(id, 0))
	}
	for i := 0; i < 2000; i++ {
		if i > 0 {
			store.BeginTick()
		}
		repl.PlanTick()
		if len(peer.sent) > maxSentLog {
			t.Fatalf("tick %d: send log holds %d records, bound %d", store.Tick(), len(peer.sent), maxSentLog)
		}
		if bound := max(256, 4*peer.owed.Len()); len(peer.carried) > bound {
			t.Fatalf("tick %d: %d carried IDs, bound %d", store.Tick(), len(peer.carried), bound)
		}
		// Every owed entry whose newest carrier is still logged must sit in
		// that carrier's span: compaction may drop only stale IDs.
		spanOf := map[uint64][]protocol.ParticipantID{}
		off := 0
		for _, rec := range peer.sent {
			spanOf[rec.tick] = peer.carried[off : off+rec.carried]
			off += rec.carried
		}
		if off != len(peer.carried) {
			t.Fatalf("tick %d: records span %d carried IDs, buffer holds %d", store.Tick(), off, len(peer.carried))
		}
		for _, e := range peer.owed.entries {
			if ids, ok := spanOf[e.last]; ok && !slices.Contains(ids, e.id) {
				t.Fatalf("tick %d: entity %d carried at %d is missing from that record", store.Tick(), e.id, e.last)
			}
		}
	}
	if len(peer.sent) != maxSentLog {
		t.Fatalf("send log at %d records, want %d: the record bound was never reached", len(peer.sent), maxSentLog)
	}
	if err := repl.Ack("recv", store.Tick()); err != nil {
		t.Fatal(err)
	}
	if st, _ := repl.StatsOf("recv"); st.Owed != n/2 {
		t.Fatalf("owed = %d after acking the newest snapshot, want %d (only the entities it omitted)", st.Owed, n/2)
	}
}

// TestRepairFloorIsOldestSkippedBase pins the repair floor once a repair has
// lowered it: deltas planned after the repair carry an older base than
// those planned before it, so an ack that skips both must fall to the
// oldest skipped base, not the first skipped record's, or the window the
// repair re-opened closes again unsent.
func TestRepairFloorIsOldestSkippedBase(t *testing.T) {
	const (
		ticker = protocol.ParticipantID(1) // changes every tick: deltas never empty
		writer = protocol.ParticipantID(2)
	)
	store := NewStore()
	repl := NewReplicator(store, ReplConfig{})
	if err := repl.AddPeer("recv", nil); err != nil {
		t.Fatal(err)
	}
	ack := func(tick uint64) {
		if err := repl.Ack("recv", tick); err != nil {
			t.Fatal(err)
		}
	}
	step := func() protocol.Message {
		tick := store.BeginTick()
		store.Upsert(posX(ticker, int64(tick)))
		return repl.PlanTick()[0].Msg
	}

	step() // 1: snapshot
	ack(1)
	step()                        // 2: base 1
	store.Upsert(posX(writer, 2)) // after plan 2: stamped 2
	step()                        // 3: base 1, the write's only carrier, lost
	ack(2)                        // floor 2
	step()                        // 4: base 2
	step()                        // 5: base 2, never acked
	ack(4)                        // skips 3: repair, floor 1
	step()                        // 6: base 1, re-covers the write, lost
	store.BeginTick()             // 7: nothing planned
	ack(7)                        // skips 5 (base 2) and 6 (base 1)
	if st, _ := repl.StatsOf("recv"); st.AckTick != 1 {
		t.Fatalf("floor %d after an ack skipping bases 2 and 1, want 1", st.AckTick)
	}
	d := step().(*protocol.Delta) // 8
	if !slices.ContainsFunc(d.Changed, func(e protocol.EntityState) bool { return e.Participant == writer }) {
		t.Fatalf("delta %d (base %d) does not re-send the write both its carriers lost", d.Tick, d.BaseTick)
	}
}
