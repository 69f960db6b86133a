package core

import (
	"testing"

	"metaclass/internal/protocol"
)

// FuzzReplicatorAcks drives a replicator with one filtered and one
// unfiltered peer through arbitrary sequences of upserts, removes,
// BeginTick, PlanTick, Acks (stale, duplicate, future, zero and newest
// ticks) and baseline imports. It must never panic, no peer's ack floor may
// pass the store tick, and no send log may exceed maxSentLog records or
// lose track of its carried IDs.
func FuzzReplicatorAcks(f *testing.F) {
	f.Add([]byte{2, 0, 1, 3, 2, 3, 4, 0, 2, 3, 4, 1})
	f.Add([]byte{2, 0, 5, 3, 4, 2, 2, 1, 5, 3, 4, 3, 6, 0, 2, 3, 4, 4})
	f.Add([]byte{2, 0, 9, 3, 2, 8, 9, 3, 4, 5, 4, 6, 7, 1, 3, 4, 7})
	f.Fuzz(func(t *testing.T, ops []byte) {
		store := NewStore()
		repl := NewReplicator(store, ReplConfig{MaxDeltaWindow: 20, OwedSettleTicks: 2})
		peers := [2]string{"filtered", "plain"}
		if err := repl.AddPeer(peers[0], func(id protocol.ParticipantID, tick uint64) bool {
			return (uint64(id)+tick)%3 != 0
		}); err != nil {
			t.Fatal(err)
		}
		if err := repl.AddPeer(peers[1], nil); err != nil {
			t.Fatal(err)
		}
		var planned []uint64 // ticks of plans that sent anything
		arg := func(i *int) byte {
			if *i >= len(ops) {
				return 0
			}
			*i++
			return ops[*i-1]
		}
		for i := 0; i < len(ops); {
			switch op := arg(&i); op % 8 {
			case 0:
				id := protocol.ParticipantID(arg(&i) % 16)
				store.Upsert(protocol.EntityState{Participant: id, Seat: uint16(arg(&i))})
			case 1:
				store.Remove(protocol.ParticipantID(arg(&i) % 16))
			case 2:
				store.BeginTick()
			case 3:
				if len(repl.PlanTick()) > 0 {
					planned = append(planned, store.Tick())
				}
			case 4, 5:
				peer := peers[arg(&i)%2]
				var tick uint64
				switch k := arg(&i); k % 5 {
				case 0: // the newest planned message
					if len(planned) > 0 {
						tick = planned[len(planned)-1]
					}
				case 1: // a stale or duplicate one
					if len(planned) > 0 {
						tick = planned[int(k)%len(planned)]
					}
				case 2: // a future tick
					tick = store.Tick() + uint64(k%7) + 1
				case 3: // zero
				case 4: // the current tick, planned or not
					tick = store.Tick()
				}
				if err := repl.Ack(peer, tick); err != nil {
					t.Fatal(err)
				}
			case 6:
				from, to := peers[arg(&i)%2], peers[arg(&i)%2]
				b, err := repl.ExportBaseline(from)
				if err != nil {
					t.Fatal(err)
				}
				if k := arg(&i); k%2 == 1 {
					b.AckTick += uint64(k)
				}
				if err := repl.ImportBaseline(to, b); err != nil {
					t.Fatal(err)
				}
			case 7:
				if err := repl.Owe(peers[0], protocol.ParticipantID(arg(&i)%16)); err != nil {
					t.Fatal(err)
				}
			}
			for _, id := range peers {
				p := repl.peers[id]
				if p.acked && p.ackTick > store.Tick() {
					t.Fatalf("%s: ack floor %d past store tick %d", id, p.ackTick, store.Tick())
				}
				if len(p.sent) > maxSentLog {
					t.Fatalf("%s: send log holds %d records, bound %d", id, len(p.sent), maxSentLog)
				}
				spans := 0
				for _, rec := range p.sent {
					spans += rec.carried
				}
				if spans != len(p.carried) {
					t.Fatalf("%s: records span %d carried IDs, buffer holds %d", id, spans, len(p.carried))
				}
			}
		}
	})
}
