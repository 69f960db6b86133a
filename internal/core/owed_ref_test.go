package core

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"metaclass/internal/protocol"
)

// mapOwedSet is the map-backed owed tracker the sorted-slice OwedSet
// replaced, kept as a test oracle: a pending map (ID → last planned carrier
// tick) with a sorted key mirror, plus the same tick-ordered send log. Its
// snapshot walk also drops dead IDs from the key mirror, which the original
// forgot to do.
type mapOwedSet struct {
	pending map[protocol.ParticipantID]uint64
	keys    []protocol.ParticipantID
	sent    []sentRec
}

func newMapOwedSet() *mapOwedSet {
	return &mapOwedSet{pending: make(map[protocol.ParticipantID]uint64)}
}

func (o *mapOwedSet) insertKey(id protocol.ParticipantID) {
	if i, found := slices.BinarySearch(o.keys, id); !found {
		o.keys = slices.Insert(o.keys, i, id)
	}
}

func (o *mapOwedSet) removeKey(id protocol.ParticipantID) {
	if i, found := slices.BinarySearch(o.keys, id); found {
		o.keys = slices.Delete(o.keys, i, i+1)
	}
}

func (o *mapOwedSet) owe(id protocol.ParticipantID, changedTick uint64) {
	last, ok := o.pending[id]
	if ok && (last == 0 || changedTick <= last) {
		return
	}
	o.pending[id] = 0
	if !ok {
		o.insertKey(id)
	}
}

func (o *mapOwedSet) mark(id protocol.ParticipantID) {
	if _, ok := o.pending[id]; !ok {
		o.insertKey(id)
	}
	o.pending[id] = 0
}

func (o *mapOwedSet) markSent(id protocol.ParticipantID, tick uint64) {
	if _, ok := o.pending[id]; ok {
		o.pending[id] = tick
		o.sent = append(o.sent, sentRec{id: id, tick: tick})
	}
}

func (o *mapOwedSet) drop(id protocol.ParticipantID) {
	if _, ok := o.pending[id]; ok {
		delete(o.pending, id)
		o.removeKey(id)
	}
}

func (o *mapOwedSet) ackDrop(tick uint64) {
	if tick == 0 || len(o.sent) == 0 {
		return
	}
	lo := sort.Search(len(o.sent), func(i int) bool { return o.sent[i].tick >= tick })
	hi := lo
	for hi < len(o.sent) && o.sent[hi].tick == tick {
		rec := o.sent[hi]
		hi++
		if last, ok := o.pending[rec.id]; ok && last == tick {
			delete(o.pending, rec.id)
			o.removeKey(rec.id)
		}
	}
	o.sent = o.sent[:copy(o.sent, o.sent[hi:])]
}

// mapDeltaSinceOwed is the map-backed tracker's filtered delta walk: the
// ascending candidates merged with a copy of the key mirror, probing the map
// for every owed entity.
func mapDeltaSinceOwed(s *Store, base uint64, filter func(protocol.ParticipantID) bool, msg *protocol.Delta, owed *mapOwedSet, ackTick, settle uint64) {
	msg.BaseTick, msg.Tick = base, s.tick
	msg.Changed = msg.Changed[:0]
	msg.Removed = msg.Removed[:0]
	var cands []protocol.ParticipantID
	for _, id := range s.sortedIDs() {
		if s.entities[id].changedTick > base {
			cands = append(cands, id)
		}
	}
	owedIDs := append([]protocol.ParticipantID(nil), owed.keys...)
	i, j := 0, 0
	for i < len(cands) || j < len(owedIDs) {
		var id protocol.ParticipantID
		cand, wasOwed := false, false
		switch {
		case j >= len(owedIDs) || (i < len(cands) && cands[i] < owedIDs[j]):
			id, cand = cands[i], true
			i++
		case i >= len(cands) || owedIDs[j] < cands[i]:
			id = owedIDs[j]
			j++
		default:
			id, cand, wasOwed = cands[i], true, true
			i++
			j++
		}
		if cand {
			if r := s.entities[id]; filter(id) {
				msg.Changed = append(msg.Changed, r.state)
				if wasOwed {
					owed.markSent(id, s.tick)
				}
			} else {
				owed.owe(id, r.changedTick)
			}
			continue
		}
		r, live := s.entities[id]
		if !live {
			owed.drop(id)
			continue
		}
		if s.tick-r.changedTick < settle {
			continue
		}
		if last := owed.pending[id]; filter(id) && (last == 0 || ackTick >= last) {
			msg.Changed = append(msg.Changed, r.state)
			owed.markSent(id, s.tick)
		}
	}
	for _, rm := range s.removals {
		if rm.tick > base {
			msg.Removed = append(msg.Removed, rm.id)
		}
	}
}

// mapSnapshotOwed is the map-backed tracker's filtered snapshot walk, with
// dead IDs dropped from both the map and the key mirror.
func mapSnapshotOwed(s *Store, filter func(protocol.ParticipantID) bool, msg *protocol.Snapshot, owed *mapOwedSet) {
	msg.Tick = s.tick
	msg.Entities = msg.Entities[:0]
	for _, id := range s.sortedIDs() {
		if !filter(id) {
			owed.mark(id)
			continue
		}
		msg.Entities = append(msg.Entities, s.entities[id].state)
		owed.markSent(id, s.tick)
	}
	for id := range owed.pending {
		if _, live := s.entities[id]; !live {
			owed.drop(id)
		}
	}
}

// TestOwedWalkMatchesMapReference drives the sorted-slice OwedSet through
// DeltaSinceOwedCands, SnapshotOwedInto and AckDrop next to the map-backed
// oracle over one store, with random upserts, removes and same-tick
// remove+re-add, per-tick random filters, settle windows 0–8, and exact,
// lost, duplicate, regressed and future acks. After every step the messages,
// Owes and Len for every ID, and the exported owed list must agree.
func TestOwedWalkMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			const n = 48
			settle := uint64(rng.Intn(9))
			store := NewStore()
			owed, ref := NewOwedSet(), newMapOwedSet()
			var msg, refMsg protocol.Delta
			var snap, refSnap protocol.Snapshot
			var buf []protocol.ParticipantID
			var planned []uint64 // ticks of messages planned so far
			var floor uint64     // the peer's ack floor, the delta base

			check := func(step string) {
				t.Helper()
				if owed.Len() != len(ref.pending) {
					t.Fatalf("tick %d %s: Len = %d, reference %d", store.Tick(), step, owed.Len(), len(ref.pending))
				}
				for id := protocol.ParticipantID(0); id < n; id++ {
					_, want := ref.pending[id]
					if got := owed.Owes(id); got != want {
						t.Fatalf("tick %d %s: Owes(%d) = %v, reference %v", store.Tick(), step, id, got, want)
					}
				}
				got := owed.appendIDs(nil)
				want := slices.Sorted(maps.Keys(ref.pending))
				if !slices.Equal(got, want) || !slices.Equal(ref.keys, want) {
					t.Fatalf("tick %d %s: owed IDs %v, reference keys %v, reference map %v", store.Tick(), step, got, ref.keys, want)
				}
			}

			for tick := 1; tick <= 420; tick++ {
				store.BeginTick()
				for k := rng.Intn(8); k > 0; k-- {
					id := protocol.ParticipantID(rng.Intn(n))
					switch r := rng.Intn(10); {
					case r < 6:
						store.Upsert(protocol.EntityState{Participant: id, Seat: uint16(rng.Intn(1000))})
					case r < 8:
						store.Remove(id)
					default: // same-tick remove + re-add
						store.Remove(id)
						store.Upsert(protocol.EntityState{Participant: id, Seat: uint16(rng.Intn(1000))})
					}
				}
				// A per-tick filter, pure within the tick.
				salt := rng.Uint64()
				admitPct := uint64(rng.Intn(101))
				filter := func(id protocol.ParticipantID) bool {
					return ((uint64(id)+1)*0x9e3779b97f4a7c15^salt)%100 < admitPct
				}

				if rng.Intn(6) == 0 {
					store.SnapshotOwedInto(filter, &snap, owed)
					mapSnapshotOwed(store, filter, &refSnap, ref)
					if !slices.EqualFunc(snap.Entities, refSnap.Entities, entityEqual) || snap.Tick != refSnap.Tick {
						t.Fatalf("tick %d: snapshot %v, reference %v", store.Tick(), snap.Entities, refSnap.Entities)
					}
					floor = store.Tick()
				} else {
					base := floor
					if store.Tick() > dirtyRingCap && rng.Intn(10) == 0 {
						base = 0 // older than the dirty ring: the full-scan fallback
					}
					buf = store.DeltaSinceOwedCands(base, filter, &msg, buf, owed, floor, settle)
					mapDeltaSinceOwed(store, base, filter, &refMsg, ref, floor, settle)
					if !slices.EqualFunc(msg.Changed, refMsg.Changed, entityEqual) ||
						!slices.Equal(msg.Removed, refMsg.Removed) || msg.BaseTick != refMsg.BaseTick || msg.Tick != refMsg.Tick {
						t.Fatalf("tick %d base %d: delta changed=%v removed=%v, reference changed=%v removed=%v",
							store.Tick(), base, msg.Changed, msg.Removed, refMsg.Changed, refMsg.Removed)
					}
				}
				planned = append(planned, store.Tick())
				check("plan")

				// A peer that stops acking for a stretch piles up send-log
				// records, driving the log's stale-record compaction.
				silent := tick%140 >= 60 && tick%140 < 130
				for k := rng.Intn(3); k > 0 && !silent; k-- {
					var ack uint64
					switch r := rng.Intn(10); {
					case r < 5: // the newest message
						ack = planned[len(planned)-1]
					case r < 7: // an older one: regressed, or duplicate
						ack = planned[rng.Intn(len(planned))]
					case r < 8: // a future tick no message carries
						ack = store.Tick() + uint64(1+rng.Intn(5))
					default:
						continue // lost
					}
					owed.AckDrop(ack)
					ref.ackDrop(ack)
					if ack <= store.Tick() && ack > floor {
						floor = ack
					}
					check(fmt.Sprintf("ack %d", ack))
				}
			}
		})
	}
}
