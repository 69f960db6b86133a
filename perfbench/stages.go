package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"metaclass/internal/core"
	"metaclass/internal/endpoint"
	"metaclass/internal/interest"
	"metaclass/internal/mathx"
	"metaclass/internal/metrics"
	"metaclass/internal/pose"
	"metaclass/internal/protocol"
	"metaclass/internal/work"
)

// The stage replay times the layers hidden inside one server tick —
// interest, plan, encode, fan-out, codec, apply, interpolation — by driving
// their public functions directly on a fixture with the workload's
// population, geometry and ack lag: one server whose every learner is an
// interest-filtered replication peer with its own receiving replica.

const (
	replayWarm  = 30
	replayTicks = 300
	coldJoins   = 20
)

// fixtureShape is a workload's population as one server sees it.
type fixtureShape struct {
	learners []mathx.Vec3
	pinned   []mathx.Vec3
	tickHz   float64
	// publishHz is how often each learner's pose changes.
	publishHz float64
	// oneWay is the access link latency; acks lag by a round trip.
	oneWay time.Duration
}

func shapeFor(w *workload, rng *rand.Rand) fixtureShape {
	s := fixtureShape{tickHz: 1 / w.tick().Seconds(), publishHz: 20, oneWay: 25 * time.Millisecond}
	switch w.name {
	case "lecture":
		for i := 0; i < 100; i++ {
			s.learners = append(s.learners, mathx.V3(float64(i%25)*1.2, 0, float64(i/25)*1.2))
		}
	case "mega":
		for i := 0; i < 256; i++ {
			s.learners = append(s.learners, mathx.V3(float64(i%16)*3.2, 0, float64(i/16)*3.2))
		}
		s.pinned = []mathx.Vec3{mathx.V3(0, 0, -3)}
	default: // blended-churn: set-up learners, campus locals, churn population
		for i := 0; i < blendedBase; i++ {
			s.learners = append(s.learners, mathx.V3(float64(i%8)*1.2, 0, float64(i/8)*1.2))
		}
		churnLive := int(stormJoins * stormStay / stormEvery)
		for i := 0; i < churnLive; i++ {
			s.learners = append(s.learners, mathx.V3(rng.Float64()*blendedVenueSide, 0, rng.Float64()*blendedVenueSide))
		}
		for i := 0; i < 2*blendedLocals; i++ {
			j := i % blendedLocals
			s.pinned = append(s.pinned, mathx.V3(float64(j%8)-3.5, 0, 2+float64(j/8)*1.2))
		}
		// Mean of the base learners' 20-59 ms links and the storm's 25 ms.
		s.oneWay = 35 * time.Millisecond
	}
	return s
}

// stageRow is one replayed stage.
type stageRow struct {
	name  string
	total time.Duration
	n     int // work items the stage processed
}

type stageReport struct {
	ticks          int
	rows           []stageRow
	planEntries    int
	distinctFrames int
	owed           int
	snapshotBytes  float64
	coldApply      time.Duration
	interpPush     float64 // ns per push
	interpSample   float64 // ns per sample
}

func (r *stageReport) row(name string) *stageRow {
	for i := range r.rows {
		if r.rows[i].name == name {
			return &r.rows[i]
		}
	}
	r.rows = append(r.rows, stageRow{name: name})
	return &r.rows[len(r.rows)-1]
}

// sinkTransport releases every frame it is sent.
type sinkTransport struct{}

func (s *sinkTransport) SendFrame(_ endpoint.Addr, f *protocol.Frame) error {
	f.Release()
	return nil
}
func (s *sinkTransport) LocalAddr() endpoint.Addr     { return "stage-sink" }
func (s *sinkTransport) Bind(endpoint.Receiver) error { return nil }
func (s *sinkTransport) Close() error                 { return nil }

type pendingAck struct {
	due  int
	peer string
	tick uint64
}

// replayStages runs the fixture for replayWarm+replayTicks ticks, timing
// the last replayTicks.
func replayStages(w *workload, seed int64) (stageReport, error) {
	var rep stageReport
	rng := rand.New(rand.NewSource(seed))
	shape := shapeFor(w, rng)
	pool := work.New(0)
	defer pool.Close()

	store := core.NewStore()
	repl := core.NewReplicator(store, core.ReplConfig{Pool: pool})
	grid := interest.NewGrid(4)
	pol := interest.NewPolicy()
	var ids []protocol.ParticipantID
	pos := make(map[protocol.ParticipantID]mathx.Vec3)
	phase := make(map[protocol.ParticipantID]float64)
	addEntity := func(p mathx.Vec3) protocol.ParticipantID {
		id := protocol.ParticipantID(len(ids) + 1)
		ids = append(ids, id)
		pos[id] = p
		phase[id] = rng.Float64() * 2 * math.Pi
		grid.Update(id, p)
		return id
	}
	for _, p := range shape.pinned {
		pol.Pin(addEntity(p))
	}
	type peer struct {
		id      protocol.ParticipantID
		name    string
		set     *interest.Set
		replica *core.Replica
		// acked is the peer's latest ack; allows is its filter at the
		// current tick, for the standalone delta walk.
		acked  uint64
		allows func(protocol.ParticipantID) bool
	}
	var peers []*peer
	byName := make(map[string]*peer)
	for _, p := range shape.learners {
		pr := &peer{id: addEntity(p), set: interest.NewSet()}
		pr.name = fmt.Sprintf("vr-%d", pr.id)
		pr.replica = core.NewReplica(100*time.Millisecond, pose.Linear{})
		pr.replica.RetainOmitted = true
		set := pr.set
		recv := pr.id
		filter := func(id protocol.ParticipantID, tick uint64) bool {
			if id == recv {
				return false
			}
			set.RefreshOwned(grid, pol, recv, tick)
			return set.Allows(grid, id)
		}
		pr.allows = func(id protocol.ParticipantID) bool { return filter(id, store.Tick()) }
		if err := repl.AddPeer(pr.name, filter); err != nil {
			return rep, err
		}
		peers = append(peers, pr)
		byName[pr.name] = pr
	}
	sink := &sinkTransport{}
	disp, err := endpoint.NewDispatcher(sink, metrics.NewRegistry("stage"), endpoint.Config{Pool: pool})
	if err != nil {
		return rep, err
	}
	defer disp.ReleaseFrames()
	var (
		fc     core.FrameCache
		dec    protocol.Decoder
		acks   []pendingAck
		frames = make(map[*protocol.Frame]bool)
		delta  protocol.Delta
		cands  []protocol.ParticipantID
	)
	defer fc.Reset()
	tickDur := time.Duration(float64(time.Second) / shape.tickHz)
	lag := int(math.Ceil(float64(2*shape.oneWay)/float64(tickDur))) + 1
	changeEvery := max(1, int(math.Round(shape.tickHz/shape.publishHz)))
	timed := func(name string, n int, fn func()) {
		t0 := time.Now()
		fn()
		if rep.ticks > 0 {
			r := rep.row(name)
			r.total += time.Since(t0)
			r.n += n
		}
	}
	for i := 0; i < replayWarm+replayTicks; i++ {
		if i >= replayWarm {
			rep.ticks++
		}
		tick := store.BeginTick()
		now := time.Duration(tick) * tickDur
		for k, id := range ids {
			if (int(tick)+k)%changeEvery != 0 {
				continue
			}
			p := pos[id]
			t := now.Seconds()
			p.X += 0.03 * math.Sin(0.5*t+phase[id])
			p.Z += 0.02 * math.Sin(0.33*t+1.7*phase[id])
			grid.Update(id, p)
			store.Upsert(protocol.EntityState{
				Participant: id, CapturedAt: now,
				Pose: protocol.QuantizePose(p, mathx.QuatIdentity()),
			})
		}
		// The runtime refreshes every client's set across its pool before
		// planning; the plan's filter calls then answer from the cache.
		timed("interest.refresh", len(peers), func() {
			pool.Run(len(peers), func(_, i int) { peers[i].set.RefreshOwned(grid, pol, peers[i].id, tick) })
		})
		var plan []core.PeerMessage
		timed("core.plan", len(peers), func() { plan = repl.PlanTick() })
		// The store's candidate walk on its own, as each peer's delta
		// build does it inside the plan (without the owed sweep).
		timed("core.store_delta", len(peers), func() {
			for _, pr := range peers {
				cands = store.DeltaSinceCands(pr.acked, pr.allows, &delta, cands)
			}
		})
		clear(frames)
		timed("core.encode", len(plan), func() {
			fc.Reset()
			fc.EncodePlan(plan, pool)
			for _, pm := range plan {
				if f := fc.FrameFor(pm); f != nil {
					frames[f] = true
					f.Release()
				}
			}
		})
		timed("endpoint.fanout", len(plan), func() { disp.Fanout(plan) })
		if rep.ticks > 0 {
			rep.planEntries += len(plan)
			rep.distinctFrames += len(frames)
		}
		for _, pm := range plan {
			f := fc.FrameFor(pm)
			if f == nil {
				return rep, fmt.Errorf("stage replay: encode failed for %s", pm.Peer)
			}
			var msg protocol.Message
			var derr error
			timed("protocol.decode", entities(pm.Msg), func() { msg, _, derr = dec.Decode(f.Bytes()) })
			f.Release()
			if derr != nil {
				return rep, derr
			}
			pr := byName[pm.Peer]
			var ackTick uint64
			var ok bool
			timed("core.apply", entities(msg), func() { ackTick, ok = pr.replica.Apply(msg, now) })
			if ok {
				acks = append(acks, pendingAck{due: i + lag, peer: pm.Peer, tick: ackTick})
			}
		}
		kept := acks[:0]
		for _, a := range acks {
			if a.due > i {
				kept = append(kept, a)
				continue
			}
			if err := repl.Ack(a.peer, a.tick); err != nil {
				return rep, err
			}
			byName[a.peer].acked = a.tick
		}
		acks = kept
	}
	for _, pr := range peers {
		st, err := repl.StatsOf(pr.name)
		if err != nil {
			return rep, err
		}
		rep.owed += st.Owed
	}
	if err := replayColdJoin(&rep, store, grid, pol, shape, &dec); err != nil {
		return rep, err
	}
	replayInterp(&rep, tickDur)
	return rep, nil
}

func entities(m protocol.Message) int {
	switch m := m.(type) {
	case *protocol.Snapshot:
		return len(m.Entities)
	case *protocol.Delta:
		return len(m.Changed) + len(m.Removed)
	}
	return 0
}

// replayColdJoin measures a joining learner's first snapshot: its encoded
// size and the time to apply it into a fresh replica.
func replayColdJoin(rep *stageReport, store *core.Store, grid *interest.Grid, pol *interest.Policy, shape fixtureShape, dec *protocol.Decoder) error {
	const joiner = protocol.ParticipantID(1 << 20)
	c := shape.learners[len(shape.learners)/2]
	grid.Update(joiner, c)
	defer grid.Remove(joiner)
	set := interest.NewSet()
	set.Refresh(grid, pol, joiner, store.Tick(), nil)
	snap := store.Snapshot(func(id protocol.ParticipantID) bool { return set.Allows(grid, id) })
	frame, err := protocol.Encode(snap)
	if err != nil {
		return err
	}
	rep.snapshotBytes = float64(len(frame))
	var applies []float64
	for i := 0; i < coldJoins; i++ {
		msg, _, err := dec.Decode(frame)
		if err != nil {
			return err
		}
		r := core.NewReplica(100*time.Millisecond, pose.Linear{})
		r.RetainOmitted = true
		t0 := time.Now()
		if _, ok := r.Apply(msg, time.Second); !ok {
			return fmt.Errorf("stage replay: cold snapshot rejected")
		}
		applies = append(applies, float64(time.Since(t0)))
	}
	rep.coldApply = time.Duration(median(applies))
	return nil
}

// replayInterp times InterpBuffer.Push and Sample on full buffers, one
// buffer per remote entity a learner displays.
func replayInterp(rep *stageReport, tickDur time.Duration) {
	const entities, rounds = 100, 400
	bufs := make([]*pose.InterpBuffer, entities)
	for i := range bufs {
		bufs[i] = pose.NewInterpBuffer(100*time.Millisecond, 64, pose.Linear{})
	}
	var push, sample time.Duration
	n := 0
	for r := 0; r < rounds; r++ {
		at := time.Duration(r) * tickDur
		t0 := time.Now()
		for i, b := range bufs {
			b.Push(pose.Pose{Position: mathx.V3(float64(i), 0, float64(r)*0.01), Rotation: mathx.QuatIdentity(), Time: at})
		}
		t1 := time.Now()
		for _, b := range bufs {
			b.Sample(at)
		}
		if r >= rounds/4 { // buffers are full from here on
			push += t1.Sub(t0)
			sample += time.Since(t1)
			n += entities
		}
	}
	rep.interpPush = float64(push) / float64(n)
	rep.interpSample = float64(sample) / float64(n)
}
