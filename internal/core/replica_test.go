package core

import (
	"testing"
	"time"

	"metaclass/internal/mathx"
	"metaclass/internal/metrics"
	"metaclass/internal/pose"
	"metaclass/internal/protocol"
)

func replicaEntity(id protocol.ParticipantID, captured time.Duration, x float64) protocol.EntityState {
	return protocol.EntityState{
		Participant: id,
		CapturedAt:  captured,
		Pose:        protocol.QuantizePose(mathx.V3(x, 0, 0), mathx.QuatIdentity()),
	}
}

func mustApply(t *testing.T, r *Replica, msg protocol.Message, now time.Duration) uint64 {
	t.Helper()
	tick, ok := r.Apply(msg, now)
	if !ok {
		t.Fatalf("Apply(%T) at %v rejected", msg, now)
	}
	return tick
}

func TestReplicaRetainedEntityExpiresAfterRetainFor(t *testing.T) {
	r := NewReplica(0, nil)
	r.RetainOmitted = true
	r.RetainFor = time.Second
	var removed []protocol.ParticipantID
	r.OnRemove = func(id protocol.ParticipantID) { removed = append(removed, id) }
	mustApply(t, r, &protocol.Snapshot{Tick: 1, Entities: []protocol.EntityState{
		replicaEntity(1, 100*time.Millisecond, 1), replicaEntity(2, 100*time.Millisecond, 2),
	}}, 100*time.Millisecond)
	// Entity 2 falls out of interest: the next snapshot omits it.
	mustApply(t, r, &protocol.Snapshot{Tick: 2, Entities: []protocol.EntityState{
		replicaEntity(1, 200*time.Millisecond, 1),
	}}, 200*time.Millisecond)
	if _, ok := r.Store().Get(2); !ok {
		t.Fatal("omitted entity dropped from the store; want it retained")
	}
	if _, ok := r.Pose(2, 200*time.Millisecond); !ok {
		t.Fatal("omitted entity lost its playout buffer; want it retained")
	}
	if st := r.Stats(); st.Retained != 1 || st.BufferDrops != 0 {
		t.Fatalf("stats after omission = %+v, want Retained 1, BufferDrops 0", st)
	}
	// Still inside RetainFor of its last capture (100 ms): kept.
	mustApply(t, r, &protocol.Delta{BaseTick: 2, Tick: 3, Changed: []protocol.EntityState{
		replicaEntity(1, 1100*time.Millisecond, 1),
	}}, 1100*time.Millisecond)
	if _, ok := r.Store().Get(2); !ok || len(removed) != 0 {
		t.Fatal("retained entity expired exactly RetainFor after its last capture; it must outlive it")
	}
	// Past RetainFor: expired from the store and the buffers.
	mustApply(t, r, &protocol.Delta{BaseTick: 3, Tick: 4, Changed: []protocol.EntityState{
		replicaEntity(1, 1200*time.Millisecond, 1),
	}}, 1200*time.Millisecond)
	if _, ok := r.Store().Get(2); ok {
		t.Error("silent retained entity still in the store after RetainFor")
	}
	if _, ok := r.Pose(2, 1200*time.Millisecond); ok {
		t.Error("silent retained entity still has a playout buffer after RetainFor")
	}
	if len(removed) != 1 || removed[0] != 2 {
		t.Errorf("OnRemove calls = %v, want [2]", removed)
	}
	if st := r.Stats(); st.BufferDrops != 1 {
		t.Errorf("BufferDrops = %d, want 1", st.BufferDrops)
	}
}

func TestReplicaUpdateEndsRetention(t *testing.T) {
	r := NewReplica(0, nil)
	r.RetainOmitted = true
	r.RetainFor = time.Second
	mustApply(t, r, &protocol.Snapshot{Tick: 1, Entities: []protocol.EntityState{
		replicaEntity(1, 0, 1), replicaEntity(2, 0, 2), replicaEntity(3, 0, 3),
	}}, 0)
	// Omit 2 and 3, then bring 2 back in interest with a fresh capture.
	mustApply(t, r, &protocol.Snapshot{Tick: 2, Entities: []protocol.EntityState{
		replicaEntity(1, 100*time.Millisecond, 1),
	}}, 100*time.Millisecond)
	mustApply(t, r, &protocol.Delta{BaseTick: 2, Tick: 3, Changed: []protocol.EntityState{
		replicaEntity(2, 200*time.Millisecond, 2),
	}}, 200*time.Millisecond)
	// Long after RetainFor, 2 (no longer retained) stays although it is as
	// silent as 3, which expires.
	mustApply(t, r, &protocol.Delta{BaseTick: 3, Tick: 4, Changed: []protocol.EntityState{
		replicaEntity(1, 5*time.Second, 1),
	}}, 5*time.Second)
	if _, ok := r.Store().Get(2); !ok {
		t.Error("entity 2 expired; an update should have ended its retention")
	}
	if _, ok := r.Store().Get(3); ok {
		t.Error("entity 3 still present; it stayed retained and silent past RetainFor")
	}
	if st := r.Stats(); st.BufferCreates != 3 || st.BufferDrops != 1 {
		t.Errorf("stats = %+v, want BufferCreates 3, BufferDrops 1", st)
	}
}

func TestReplicaRemoveAndReaddGetsFreshBuffer(t *testing.T) {
	r := NewReplica(0, nil)
	var news, removes int
	r.OnNew = func(protocol.EntityState) { news++ }
	r.OnRemove = func(protocol.ParticipantID) { removes++ }
	mustApply(t, r, &protocol.Snapshot{Tick: 1, Entities: []protocol.EntityState{
		replicaEntity(1, 100*time.Millisecond, 1),
	}}, 100*time.Millisecond)
	mustApply(t, r, &protocol.Delta{BaseTick: 1, Tick: 2, Changed: []protocol.EntityState{
		replicaEntity(1, 200*time.Millisecond, 2),
	}}, 200*time.Millisecond)
	// Entity 1 left and rejoined inside one delta window.
	mustApply(t, r, &protocol.Delta{BaseTick: 2, Tick: 3,
		Removed: []protocol.ParticipantID{1},
		Changed: []protocol.EntityState{replicaEntity(1, 300*time.Millisecond, 7)},
	}, 300*time.Millisecond)
	if st := r.Stats(); st.BufferCreates != 2 || st.BufferDrops != 1 {
		t.Fatalf("stats = %+v, want BufferCreates 2, BufferDrops 1", st)
	}
	if news != 2 || removes != 1 {
		t.Errorf("OnNew/OnRemove = %d/%d, want 2/1", news, removes)
	}
	if _, ok := r.Store().Get(1); !ok {
		t.Fatal("re-added entity missing from the store")
	}
	// A fresh buffer holds only the re-add's sample: a display time between
	// the old samples renders the new one, not a blend across the gap.
	p, ok := r.Pose(1, 150*time.Millisecond)
	if !ok {
		t.Fatal("re-added entity has no playout buffer")
	}
	if !p.Position.NearEq(mathx.V3(7, 0, 0), 1e-3) {
		t.Errorf("pose after re-add = %v, want x=7 (history must not bridge the gap)", p.Position)
	}
}

func TestReplicaStaleDeltaAcksCurrentTick(t *testing.T) {
	r := NewReplica(0, nil)
	mustApply(t, r, &protocol.Snapshot{Tick: 5, Entities: []protocol.EntityState{replicaEntity(1, 0, 1)}}, 0)
	mustApply(t, r, &protocol.Delta{BaseTick: 5, Tick: 7, Changed: []protocol.EntityState{replicaEntity(1, time.Second, 2)}}, time.Second)
	// A duplicate of an older delta: nothing applies, the ack is tick 7.
	tick := mustApply(t, r, &protocol.Delta{BaseTick: 5, Tick: 6, Changed: []protocol.EntityState{replicaEntity(1, 500*time.Millisecond, 9)}}, 2*time.Second)
	if tick != 7 {
		t.Errorf("stale delta acked tick %d, want the current 7", tick)
	}
	if e, _ := r.Store().Get(1); e.CapturedAt != time.Second {
		t.Errorf("stale delta applied: CapturedAt = %v, want 1s", e.CapturedAt)
	}
	if st := r.Stats(); st.Applied != 3 || st.Rejected != 0 {
		t.Errorf("stats = %+v, want Applied 3, Rejected 0", st)
	}
}

func TestReplicaLatencyOnlyWhenCaptureAdvances(t *testing.T) {
	r := NewReplica(0, nil)
	r.Latency = new(metrics.Histogram)
	mustApply(t, r, &protocol.Snapshot{Tick: 1, Entities: []protocol.EntityState{replicaEntity(1, 100*time.Millisecond, 1)}}, 150*time.Millisecond)
	// A keyframe re-sending the same capture says nothing new.
	mustApply(t, r, &protocol.Snapshot{Tick: 2, Entities: []protocol.EntityState{replicaEntity(1, 100*time.Millisecond, 1)}}, 200*time.Millisecond)
	if n := r.Latency.Count(); n != 1 {
		t.Fatalf("observations after a same-stamp re-send = %d, want 1", n)
	}
	mustApply(t, r, &protocol.Delta{BaseTick: 2, Tick: 3, Changed: []protocol.EntityState{replicaEntity(1, 250*time.Millisecond, 2)}}, 280*time.Millisecond)
	// An older capture arriving late does not move the watermark either.
	mustApply(t, r, &protocol.Delta{BaseTick: 3, Tick: 4, Changed: []protocol.EntityState{replicaEntity(1, 240*time.Millisecond, 2)}}, 290*time.Millisecond)
	if n := r.Latency.Count(); n != 2 {
		t.Fatalf("observations = %d, want 2 (one per capture advance)", n)
	}
	if lo, hi := r.Latency.Min(), r.Latency.Max(); lo != 30*time.Millisecond || hi != 50*time.Millisecond {
		t.Errorf("latency min/max = %v/%v, want 30ms/50ms", lo, hi)
	}
}

func TestReplicaSteadyStateApplyAllocatesNothing(t *testing.T) {
	const n = 100
	r := NewReplica(100*time.Millisecond, pose.Linear{})
	r.RetainOmitted = true
	r.Latency = new(metrics.Histogram)
	d := &protocol.Delta{Changed: make([]protocol.EntityState, n)}
	for i := range d.Changed {
		d.Changed[i] = replicaEntity(protocol.ParticipantID(i+1), 0, float64(i))
	}
	mustApply(t, r, &protocol.Snapshot{Tick: 1, Entities: d.Changed}, 0)
	tick := uint64(1)
	step := func() {
		tick++
		now := time.Duration(tick) * 33 * time.Millisecond
		d.BaseTick, d.Tick = tick-1, tick
		for i := range d.Changed {
			d.Changed[i].CapturedAt = now
		}
		if _, ok := r.Apply(d, now); !ok {
			t.Fatal("steady-state delta rejected")
		}
	}
	for range 100 { // fill every ring
		step()
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Errorf("steady-state delta Apply into a warm replica = %v allocs, want 0", allocs)
	}
}
