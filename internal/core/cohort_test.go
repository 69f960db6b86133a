package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"metaclass/internal/protocol"
)

// refPeer is the reference planner's shadow of one peer: its ack state and
// counters, plus — for a filtered peer — its own owed set. log is a naive
// send log, kept apart from the replicator's: every planned message with a
// copy of the owed IDs it carried, never compacted.
type refPeer struct {
	ackTick      uint64
	acked        bool
	lastSnapshot uint64
	snapshots    uint64
	deltas       uint64
	filter       FilterFunc
	owed         *OwedSet
	log          []refSent
}

// refSent is one planned message in a refPeer's send log.
type refSent struct {
	tick, base uint64
	snap       bool
	carried    []protocol.ParticipantID
}

func newRefPeer(filter FilterFunc) *refPeer {
	p := &refPeer{filter: filter}
	if filter != nil {
		p.owed = NewOwedSet()
	}
	return p
}

// sent files a planned message in the naive log, with the owed IDs the
// peer's last walk carried. Like the replicator's log it holds at most
// maxSentLog records.
func (p *refPeer) sent(tick, base uint64, snap bool) {
	rec := refSent{tick: tick, base: base, snap: snap}
	if p.owed != nil {
		rec.carried = append([]protocol.ParticipantID(nil), p.owed.carried...)
	}
	if len(p.log) == maxSentLog {
		p.log = p.log[1:]
	}
	p.log = append(p.log, rec)
}

// ack mirrors Replicator.Ack over the naive log: every message planned at
// or before tick leaves the log; the owed IDs the message planned at tick
// carried settle; a snapshot ack proves its tick; a delta ack proves its
// tick unless an unacked delta with an older base was skipped, in which
// case the floor falls to the oldest such base, even below the current one.
func (p *refPeer) ack(tick uint64) {
	var keep []refSent
	var match *refSent
	skipped, oldest := false, uint64(0)
	for i := range p.log {
		rec := &p.log[i]
		switch {
		case rec.tick > tick:
			keep = append(keep, *rec)
		case rec.tick == tick:
			match = rec
			if p.owed != nil {
				p.owed.settle(rec.carried, tick)
			}
		case !rec.snap && (!skipped || rec.base < oldest):
			skipped, oldest = true, rec.base
		}
	}
	p.log = keep
	floor, repair := tick, false
	if skipped && (match == nil || !match.snap && oldest < match.base) {
		floor, repair = oldest, true
	}
	switch {
	case !p.acked || floor > p.ackTick:
		p.ackTick, p.acked = floor, true
	case repair && floor < p.ackTick:
		p.ackTick = floor
	}
}

// stats is the reference's view of Replicator.StatsOf.
func (p *refPeer) stats() PeerStats {
	return PeerStats{AckTick: p.ackTick, Acked: p.acked, Snapshots: p.snapshots, Deltas: p.deltas, Owed: p.owed.Len()}
}

// refMessage is one reference plan entry. key names the cohort the message
// belongs to: "snap" for the shared broadcast snapshot, "delta@<base>" for
// an unfiltered delta, "peer:<id>" for a filtered peer's own message.
type refMessage struct {
	PeerMessage
	key string
}

// referencePlanTick is a per-peer planner covering filtered and unfiltered
// peers: every peer's Delta or Snapshot is built independently, freshly
// allocated, with no cohorts and no pool, against a shadow of the peer
// table. order must list the peers in sorted order. PlanTick must emit
// byte-identical frames in the same peer order, and group peers into
// cohorts exactly by key.
func referencePlanTick(s *Store, cfg ReplConfig, peers map[string]*refPeer, order []string) []refMessage {
	cfg.applyDefaults()
	tick := s.Tick()
	var out []refMessage
	for _, id := range order {
		p := peers[id]
		var allows func(protocol.ParticipantID) bool
		if p.filter != nil {
			f := p.filter
			allows = func(eid protocol.ParticipantID) bool { return f(eid, tick) }
		}
		wantSnapshot := !p.acked ||
			tick-p.ackTick > cfg.MaxDeltaWindow ||
			(cfg.SnapshotEvery > 0 && tick-p.lastSnapshot >= cfg.SnapshotEvery)
		if wantSnapshot {
			var msg *protocol.Snapshot
			key := "snap"
			if p.filter != nil {
				msg = &protocol.Snapshot{}
				s.SnapshotOwedInto(allows, msg, p.owed)
				key = "peer:" + id
			} else {
				msg = s.Snapshot(nil)
			}
			p.lastSnapshot = tick
			p.snapshots++
			p.sent(tick, p.ackTick, true)
			out = append(out, refMessage{PeerMessage{Peer: id, Msg: msg}, key})
			continue
		}
		var delta *protocol.Delta
		key := fmt.Sprintf("delta@%d", p.ackTick)
		if p.filter != nil {
			delta = &protocol.Delta{}
			s.DeltaSinceOwedCands(p.ackTick, allows, delta, nil, p.owed, p.ackTick, cfg.OwedSettleTicks)
			key = "peer:" + id
		} else {
			delta = s.DeltaSince(p.ackTick, nil)
		}
		if len(delta.Changed) == 0 && len(delta.Removed) == 0 {
			continue
		}
		p.deltas++
		p.sent(tick, p.ackTick, false)
		out = append(out, refMessage{PeerMessage{Peer: id, Msg: delta}, key})
	}
	return out
}

// checkPlanAgainstReference asserts plan is the reference plan: the same
// peers in the same order with byte-identical frames, cohort IDs dense and
// ascending in first-use order with one cohort per reference key, and every
// cohort's members sharing one Msg pointer that no other cohort uses. It
// returns the plan's encoded byte total.
func checkPlanAgainstReference(t *testing.T, label string, plan []PeerMessage, ref []refMessage) uint64 {
	t.Helper()
	if len(plan) != len(ref) {
		t.Fatalf("%s: planned %d messages, reference %d", label, len(plan), len(ref))
	}
	cohortOf := map[string]int{}
	var cohortMsg []protocol.Message
	var total uint64
	for i, pm := range plan {
		if pm.Peer != ref[i].Peer {
			t.Fatalf("%s: message %d to %s, reference to %s", label, i, pm.Peer, ref[i].Peer)
		}
		want, seen := cohortOf[ref[i].key]
		if !seen {
			want = len(cohortMsg)
			cohortOf[ref[i].key] = want
			for c, m := range cohortMsg {
				if m == pm.Msg {
					t.Fatalf("%s: %s (cohort %d) shares cohort %d's message", label, pm.Peer, pm.Cohort, c)
				}
			}
			cohortMsg = append(cohortMsg, pm.Msg)
		}
		if pm.Cohort != want {
			t.Fatalf("%s: %s in cohort %d, want %d (%s)", label, pm.Peer, pm.Cohort, want, ref[i].key)
		}
		if pm.Msg != cohortMsg[want] {
			t.Fatalf("%s: %s does not share cohort %d's message", label, pm.Peer, want)
		}
		got, err := protocol.Encode(pm.Msg)
		if err != nil {
			t.Fatal(err)
		}
		exp, err := protocol.Encode(ref[i].Msg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, exp) {
			t.Fatalf("%s: frame to %s diverged from the reference plan", label, pm.Peer)
		}
		total += uint64(len(got))
	}
	return total
}

// TestCohortPlanMatchesPerPeerPlanBroadcast churns a store for hundreds of
// ticks while peers ack at different cadences (including one that never
// acks and a keyframe schedule), and asserts every tick that the cohort
// planner sends exactly the frames — and therefore exactly the
// sync.bytes.sent — the seed's per-peer planner would have sent.
func TestCohortPlanMatchesPerPeerPlanBroadcast(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := ReplConfig{MaxDeltaWindow: 40, SnapshotEvery: 90}

	src := NewStore()
	repl := NewReplicator(src, cfg)
	shadow := NewStore()
	refPeers := make(map[string]*refPeer)
	var order []string
	for i := 0; i < 12; i++ {
		id := fmt.Sprintf("peer-%02d", i)
		if err := repl.AddPeer(id, nil); err != nil {
			t.Fatal(err)
		}
		refPeers[id] = newRefPeer(nil)
		order = append(order, id)
	}

	var cohortBytes uint64
	for tick := 0; tick < 300; tick++ {
		// Identical mutations on both stores.
		mutate := func(s *Store) {
			s.BeginTick()
			for i := 0; i < 5; i++ {
				id := protocol.ParticipantID(rng.Intn(30))
				switch {
				case rng.Float64() < 0.1:
					s.Remove(id)
				default:
					s.Upsert(ent(id, rng.Float64()*10))
				}
			}
		}
		seed := rng.Int63()
		rng = rand.New(rand.NewSource(seed))
		mutate(src)
		rng = rand.New(rand.NewSource(seed))
		mutate(shadow)

		plan := repl.PlanTick()
		ref := referencePlanTick(shadow, cfg, refPeers, order)
		cohortBytes += checkPlanAgainstReference(t, fmt.Sprintf("tick %d", tick), plan, ref)

		// Peers ack at mixed cadences; peer-00 never acks, exercising the
		// un-acked snapshot path alongside delta cohorts.
		for i, id := range order {
			if i == 0 {
				continue
			}
			if tick%(i+1) == 0 {
				if err := repl.Ack(id, src.Tick()); err != nil {
					t.Fatal(err)
				}
				refPeers[id].ack(shadow.Tick())
			}
		}
	}
	if cohortBytes == 0 {
		t.Fatal("test drove no replication traffic")
	}
}

// TestCohortSharing asserts the fan-out contract: unfiltered peers with the
// same ack baseline share one Msg pointer and cohort ID, and filtered peers
// get singleton cohorts.
func TestCohortSharing(t *testing.T) {
	s := NewStore()
	r := NewReplicator(s, ReplConfig{})
	for _, id := range []string{"a", "b", "c"} {
		if err := r.AddPeer(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	evens := func(id protocol.ParticipantID, _ uint64) bool { return id%2 == 0 }
	if err := r.AddPeer("filtered", evens); err != nil {
		t.Fatal(err)
	}

	s.BeginTick()
	for i := 1; i <= 4; i++ {
		s.Upsert(ent(protocol.ParticipantID(i), 0))
	}

	// First contact: all unfiltered peers share one snapshot cohort.
	plan := r.PlanTick()
	if len(plan) != 4 {
		t.Fatalf("planned %d messages, want 4", len(plan))
	}
	byPeer := map[string]PeerMessage{}
	for _, pm := range plan {
		byPeer[pm.Peer] = pm
	}
	if byPeer["a"].Msg != byPeer["b"].Msg || byPeer["b"].Msg != byPeer["c"].Msg {
		t.Error("unfiltered snapshot peers did not share one message")
	}
	if byPeer["a"].Cohort != byPeer["b"].Cohort || byPeer["b"].Cohort != byPeer["c"].Cohort {
		t.Error("unfiltered snapshot peers did not share one cohort")
	}
	if byPeer["filtered"].Cohort == byPeer["a"].Cohort {
		t.Error("filtered peer shared the broadcast cohort")
	}
	if snap := byPeer["filtered"].Msg.(*protocol.Snapshot); len(snap.Entities) != 2 {
		t.Errorf("filtered snapshot has %d entities, want 2", len(snap.Entities))
	}

	// a and b ack the same tick, c stays one behind: two delta cohorts.
	_ = r.Ack("a", s.Tick())
	_ = r.Ack("b", s.Tick())
	_ = r.Ack("filtered", s.Tick())
	cTick := s.Tick()
	s.BeginTick()
	s.Upsert(ent(1, 1))
	_ = r.Ack("c", cTick) // c acks the older tick after a/b move ahead
	_ = r.PlanTick()
	_ = r.Ack("a", s.Tick())
	_ = r.Ack("b", s.Tick())
	s.BeginTick()
	s.Upsert(ent(2, 2))
	plan = r.PlanTick()
	byPeer = map[string]PeerMessage{}
	for _, pm := range plan {
		byPeer[pm.Peer] = pm
	}
	if byPeer["a"].Msg != byPeer["b"].Msg {
		t.Error("same-ack peers a/b did not share a delta")
	}
	if byPeer["c"].Msg == byPeer["a"].Msg {
		t.Error("stale peer c shared the fresh cohort's delta")
	}
	da := byPeer["a"].Msg.(*protocol.Delta)
	dc := byPeer["c"].Msg.(*protocol.Delta)
	if da.BaseTick == dc.BaseTick {
		t.Errorf("expected distinct ack baselines, both %d", da.BaseTick)
	}
}

// TestPlanReuseInvalidation: the plan scratch and cached peer list must
// stay correct across peer membership changes.
func TestPlanReuseInvalidation(t *testing.T) {
	s := NewStore()
	r := NewReplicator(s, ReplConfig{})
	_ = r.AddPeer("a", nil)
	_ = r.AddPeer("b", nil)
	s.BeginTick()
	s.Upsert(ent(1, 0))
	if got := len(r.PlanTick()); got != 2 {
		t.Fatalf("planned %d, want 2", got)
	}
	if err := r.RemovePeer("a"); err != nil {
		t.Fatal(err)
	}
	_ = r.AddPeer("z", nil)
	s.BeginTick()
	s.Upsert(ent(1, 1))
	plan := r.PlanTick()
	var peers []string
	for _, pm := range plan {
		peers = append(peers, pm.Peer)
	}
	if len(peers) != 2 || peers[0] != "b" || peers[1] != "z" {
		t.Fatalf("plan peers = %v, want [b z]", peers)
	}
	if got := r.Peers(); len(got) != 2 || got[0] != "b" || got[1] != "z" {
		t.Fatalf("Peers() = %v, want [b z]", got)
	}
}

// BenchmarkPlanTickBroadcast100Peers measures the cohort win: 100 unfiltered
// peers sharing one ack baseline cost one delta build, not 100.
func BenchmarkPlanTickBroadcast100Peers(b *testing.B) {
	s := NewStore()
	r := NewReplicator(s, ReplConfig{})
	for i := 0; i < 100; i++ {
		_ = r.AddPeer(fmt.Sprintf("peer-%03d", i), nil)
	}
	s.BeginTick()
	for i := 0; i < 100; i++ {
		s.Upsert(ent(protocol.ParticipantID(i), float64(i)))
	}
	_ = r.PlanTick()
	for _, p := range r.Peers() {
		_ = r.Ack(p, s.Tick())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.BeginTick()
		s.Upsert(ent(protocol.ParticipantID(i%100), float64(i)))
		msgs := r.PlanTick()
		for _, m := range msgs {
			_ = r.Ack(m.Peer, s.Tick())
		}
	}
}
