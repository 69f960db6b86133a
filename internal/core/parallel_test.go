package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"metaclass/internal/protocol"
	"metaclass/internal/work"
)

// TestPlanIdenticalAcrossWidths churns two identically-mutated stores for
// many ticks — one planned by the reference per-peer planner, one by
// PlanTick at pool width nil, 1, 2 or 8 — with a randomized mix of filtered
// peers, ack-cohort peers, a never-acking peer, and membership churn. Every
// tick the plan must match the reference: same peer order, byte-identical
// frames, dense first-use cohort IDs, one shared Msg per cohort; at the end
// every peer's StatsOf counters must match too. Each width runs with
// LossRepair off and on (skipped acks regress the floor). Run under -race
// in CI, it is also the data-race probe for the concurrent builds.
func TestPlanIdenticalAcrossWidths(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "pool=nil"
		}
		t.Run(name, func(t *testing.T) {
			for _, lossRepair := range []bool{false, true} {
				t.Run(fmt.Sprintf("loss_repair=%v", lossRepair), func(t *testing.T) {
					drivePlanAgainstReference(t, workers, lossRepair, 240)
				})
			}
		})
	}
}

func drivePlanAgainstReference(t *testing.T, workers int, lossRepair bool, ticks int) {
	rng := rand.New(rand.NewSource(17))
	cfg := ReplConfig{MaxDeltaWindow: 30, SnapshotEvery: 70, LossRepair: lossRepair}
	pcfg := cfg
	if workers > 0 {
		pcfg.Pool = work.New(workers)
		defer pcfg.Pool.Close()
	}
	store, refStore := NewStore(), NewStore()
	repl := NewReplicator(store, pcfg)
	refPeers := map[string]*refPeer{}

	filters := []FilterFunc{
		nil,
		nil, // unfiltered peers dominate so ack-cohorts form
		func(id protocol.ParticipantID, _ uint64) bool { return id%2 == 0 },
		func(id protocol.ParticipantID, _ uint64) bool { return id%3 != 0 },
		func(id protocol.ParticipantID, tick uint64) bool { return (uint64(id)+tick)%4 != 0 },
	}
	nPeers := 0
	addPeer := func() {
		id := fmt.Sprintf("peer-%03d", nPeers)
		f := filters[nPeers%len(filters)]
		if err := repl.AddPeer(id, f); err != nil {
			t.Fatal(err)
		}
		refPeers[id] = newRefPeer(f)
		nPeers++
	}
	for i := 0; i < 10; i++ {
		addPeer()
	}

	var order []string
	compared := 0
	for tick := 0; tick < ticks; tick++ {
		mutSeed := rng.Int63()
		for _, s := range []*Store{store, refStore} {
			mrng := rand.New(rand.NewSource(mutSeed))
			s.BeginTick()
			for i := 0; i < 6; i++ {
				id := protocol.ParticipantID(mrng.Intn(48) + 1)
				if mrng.Float64() < 0.12 {
					s.Remove(id)
				} else {
					s.Upsert(ent(id, mrng.Float64()*20))
				}
			}
		}
		if tick%23 == 11 {
			addPeer()
		}
		if tick%31 == 19 && nPeers > 4 {
			victim := fmt.Sprintf("peer-%03d", rng.Intn(nPeers))
			if _, ok := refPeers[victim]; ok {
				delete(refPeers, victim)
				if err := repl.RemovePeer(victim); err != nil {
					t.Fatal(err)
				}
			}
		}

		order = order[:0]
		for id := range refPeers {
			order = append(order, id)
		}
		sort.Strings(order)
		ref := referencePlanTick(refStore, cfg, refPeers, order)
		checkPlanAgainstReference(t, fmt.Sprintf("tick %d", tick), repl.PlanTick(), ref)
		compared += len(ref)

		// Mixed-cadence acks (the first peer never acks) keep several
		// distinct ack baselines — and therefore several delta cohorts — live.
		for i, id := range order {
			if i == 0 || tick%(i%5+2) != 0 {
				continue
			}
			refPeers[id].ack(refStore.Tick(), lossRepair)
			if err := repl.Ack(id, store.Tick()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if compared == 0 {
		t.Fatal("test compared no messages")
	}
	for _, id := range order {
		got, err := repl.StatsOf(id)
		if err != nil {
			t.Fatal(err)
		}
		if want := refPeers[id].stats(); got != want {
			t.Fatalf("stats of %s = %+v, reference %+v", id, got, want)
		}
	}
}

// TestParallelEncodeFailureLeaksNoFrames drives EncodePlan over a plan where
// one cohort's payload exceeds protocol.MaxPayload: the failed cohort must
// report nil per recipient, the healthy cohorts
// must still share frames, and no pooled frame may leak.
func TestParallelEncodeFailureLeaksNoFrames(t *testing.T) {
	live0 := protocol.LiveFrames()
	s := NewStore()
	pool := work.New(4)
	defer pool.Close()
	r := NewReplicator(s, ReplConfig{Pool: pool})
	// Peer "big" is filtered onto the oversized entity only, so its
	// singleton cohort fails to encode while the broadcast cohort succeeds.
	onlyBig := func(id protocol.ParticipantID, _ uint64) bool { return id == 999 }
	notBig := func(id protocol.ParticipantID, _ uint64) bool { return id != 999 }
	if err := r.AddPeer("big", onlyBig); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c"} {
		if err := r.AddPeer(id, notBig); err != nil {
			t.Fatal(err)
		}
	}

	s.BeginTick()
	s.Upsert(ent(1, 0))
	huge := ent(999, 1)
	huge.Expression = make([]byte, protocol.MaxPayload+1)
	s.Upsert(huge)

	plan := r.PlanTick()
	if len(plan) != 4 {
		t.Fatalf("planned %d messages, want 4", len(plan))
	}
	var cache FrameCache
	cache.EncodePlan(plan, pool)
	failed, sent := 0, 0
	for _, pm := range plan {
		f := cache.FrameFor(pm)
		if pm.Peer == "big" {
			if f != nil {
				t.Fatal("oversized cohort encoded successfully")
			}
			failed++
			continue
		}
		if f == nil {
			t.Fatalf("healthy cohort for %s failed to encode", pm.Peer)
		}
		f.Release() // consume the recipient reference, as SendFrame would
		sent++
	}
	if failed != 1 || sent != 3 {
		t.Fatalf("failed=%d sent=%d, want 1/3", failed, sent)
	}
	cache.Reset()
	if live := protocol.LiveFrames(); live != live0 {
		t.Fatalf("%d frames leaked across a failed parallel encode", live-live0)
	}
}

// TestEncodePlanFramesMatchEncode encodes one plan through EncodePlan at a
// nil pool and at width 4 and checks every recipient's frame carries exactly
// the bytes protocol.Encode produces for its message.
func TestEncodePlanFramesMatchEncode(t *testing.T) {
	live0 := protocol.LiveFrames()
	s := NewStore()
	r := NewReplicator(s, ReplConfig{})
	evens := func(id protocol.ParticipantID, _ uint64) bool { return id%2 == 0 }
	for i := 0; i < 6; i++ {
		var f FilterFunc
		if i%3 == 0 {
			f = evens
		}
		if err := r.AddPeer(fmt.Sprintf("peer-%d", i), f); err != nil {
			t.Fatal(err)
		}
	}
	s.BeginTick()
	for i := 1; i <= 9; i++ {
		s.Upsert(ent(protocol.ParticipantID(i), float64(i)))
	}

	plan := r.PlanTick()
	pool := work.New(4)
	defer pool.Close()
	for _, p := range []*work.Pool{nil, pool} {
		var cache FrameCache
		cache.EncodePlan(plan, p)
		for _, pm := range plan {
			f := cache.FrameFor(pm)
			if f == nil {
				t.Fatalf("workers=%d: encode failed for %s", p.Workers(), pm.Peer)
			}
			want, err := protocol.Encode(pm.Msg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(f.Bytes(), want) {
				t.Fatalf("workers=%d: frame to %s differs from protocol.Encode", p.Workers(), pm.Peer)
			}
			f.Release()
		}
		cache.Reset()
	}
	if live := protocol.LiveFrames(); live != live0 {
		t.Fatalf("%d frames leaked", live-live0)
	}
}

// TestPlanTickFilteredSteadyStateAllocatesNothing pins the filtered plan's
// steady state at zero allocations per tick, inline and on a 2-worker pool:
// decimated filtered peers whose owed sets churn (rejected changes owed,
// phase-tick sends, exact acks settling them, lost acks lagging the base so
// several candidate lists coexist), next to an unfiltered cohort peer.
func TestPlanTickFilteredSteadyStateAllocatesNothing(t *testing.T) {
	for _, workers := range []int{0, 2} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "pool=nil"
		}
		t.Run(name, func(t *testing.T) {
			var cfg ReplConfig
			if workers > 0 {
				cfg.Pool = work.New(workers)
				defer cfg.Pool.Close()
			}
			store := NewStore()
			repl := NewReplicator(store, cfg)
			filter := decimationFilter(func(id protocol.ParticipantID) uint64 {
				return [4]uint64{1, 2, 4, 8}[id%4]
			})
			const entities = 64
			var peers []string
			for i := 0; i < 8; i++ {
				peers = append(peers, fmt.Sprintf("vr-%d", i))
				if err := repl.AddPeer(peers[i], filter); err != nil {
					t.Fatal(err)
				}
			}
			if err := repl.AddPeer("relay", nil); err != nil {
				t.Fatal(err)
			}
			peers = append(peers, "relay")
			owedSeen := 0
			step := func() {
				tick := store.BeginTick()
				for id := protocol.ParticipantID(0); id < entities; id++ {
					if (tick+uint64(id))%3 == 0 {
						store.Upsert(protocol.EntityState{Participant: id, Seat: uint16(tick)})
					}
				}
				repl.PlanTick()
				for i, p := range peers {
					if (tick+uint64(i))%4 != 0 { // every fourth ack is lost
						if err := repl.Ack(p, tick); err != nil {
							t.Fatal(err)
						}
					}
				}
				st, _ := repl.StatsOf(peers[0])
				owedSeen = max(owedSeen, st.Owed)
			}
			for i := 0; i < 300; i++ {
				step()
			}
			if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
				t.Errorf("steady-state filtered tick allocates %.1f times, want 0", allocs)
			}
			if owedSeen == 0 {
				t.Fatal("owed sets never churned: the gate measures nothing")
			}
		})
	}
}
