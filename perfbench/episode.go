package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"metaclass/internal/client"
	"metaclass/internal/cloud"
	"metaclass/internal/core"
	"metaclass/internal/interest"
	"metaclass/internal/metrics"
	"metaclass/internal/netsim"
	"metaclass/internal/protocol"
	"metaclass/internal/trace"
)

const (
	// warmFor lets interest tiers, pools and ack baselines settle after the
	// last set-up join before the window opens.
	warmFor = time.Second
	// joinDeadline is how long a joining learner may wait for a first view
	// of the room. One second is the point where a join feels broken; the
	// slowest join seen on these workloads is well under it.
	joinDeadline = time.Second
	// convergeDeadline bounds the quiet period the convergence oracle
	// waits after every publisher stops: the replica's 2 s RetainFor
	// horizon plus one second. By then a learner's display has extrapolated
	// a silent avatar for as long as it ever will, so a pair still wrong is
	// a lost update on screen. Such pairs count in fail_frac and are left
	// out of converge_ms.
	convergeDeadline = 3 * time.Second
	// drainFor lets every in-flight delivery land or be dropped after
	// teardown, before the frame-leak audit.
	drainFor = 30 * time.Second
)

// learner is one live remote VR learner.
type learner struct {
	id   protocol.ParticipantID
	vr   *client.VR
	via  *cloud.Relay
	link netsim.LinkConfig
	// cut is the learner's pose.age histogram when the window opened (zero
	// for learners who joined inside it).
	cut metrics.Histogram
}

// joinRec tracks one join until its first sync; vr is dropped then, so a
// departed learner's client is not kept alive by the harness.
type joinRec struct {
	id       protocol.ParticipantID
	vr       *client.VR
	joined   time.Duration
	syncedAt time.Duration
}

type leaveRec struct {
	at time.Duration
	id protocol.ParticipantID
}

// episode is one self-contained deployment: set-up, measured window,
// convergence check and teardown.
type episode struct {
	w    *workload
	t    topo
	rng  *rand.Rand
	tick time.Duration

	live     map[protocol.ParticipantID]*learner
	base     []protocol.ParticipantID
	joins    []*joinRec
	pending  []*joinRec
	relays   []*cloud.Relay
	lastJoin protocol.ParticipantID

	inWindow    bool
	poseAge     metrics.Histogram
	leaves      []leaveRec
	nextStorm   time.Duration
	nextMigrate time.Duration
	nextBase    int
	churned     int
}

func newEpisode(w *workload, t topo, seed int64) *episode {
	return &episode{
		w:    w,
		t:    t,
		rng:  rand.New(rand.NewSource(seed)),
		tick: w.tick(),
		live: make(map[protocol.ParticipantID]*learner),
	}
}

func (e *episode) join(name string, s trace.MotionScript, link netsim.LinkConfig, via *cloud.Relay, base bool) error {
	vr, id, err := e.t.AddRemote(name, s, link, via)
	if err != nil {
		return fmt.Errorf("join %s: %w", name, err)
	}
	e.live[id] = &learner{id: id, vr: vr, via: via, link: link}
	// Set-up learners take part in handoffs.
	if base {
		e.base = append(e.base, id)
	}
	j := &joinRec{id: id, vr: vr, joined: e.t.Sim().Now()}
	e.joins = append(e.joins, j)
	e.pending = append(e.pending, j)
	e.lastJoin = id
	return nil
}

func (e *episode) leave(id protocol.ParticipantID) error {
	l, ok := e.live[id]
	if !ok {
		return fmt.Errorf("leave: unknown learner %d", id)
	}
	if _, synced := l.vr.FirstSyncAt(); !synced {
		return fmt.Errorf("learner %d left before its first sync", id)
	}
	if e.inWindow {
		e.mergeAge(l)
	}
	delete(e.live, id)
	if err := e.t.RemoveRemote(id); err != nil {
		return fmt.Errorf("leave %d: %w", id, err)
	}
	return nil
}

// migrateNext hands the next set-up learner off between relay and cloud.
func (e *episode) migrateNext() error {
	if len(e.base) == 0 || len(e.relays) == 0 {
		return nil
	}
	id := e.base[e.nextBase%len(e.base)]
	e.nextBase++
	l := e.live[id]
	to := e.relays[0]
	if l.via != nil {
		to = nil
	}
	if err := e.t.Migrate(id, to, l.link); err != nil {
		return fmt.Errorf("migrate %d: %w", id, err)
	}
	l.via = to
	return nil
}

func (e *episode) addRelay(name string, link netsim.LinkConfig) (*cloud.Relay, error) {
	r, err := e.t.AddRelay(name, link)
	if err != nil {
		return nil, err
	}
	e.relays = append(e.relays, r)
	return r, nil
}

// checkJoins records first syncs and fails any join past its deadline.
func (e *episode) checkJoins() error {
	now := e.t.Sim().Now()
	kept := e.pending[:0]
	for _, j := range e.pending {
		if at, ok := j.vr.FirstSyncAt(); ok {
			j.syncedAt, j.vr = at, nil
			continue
		}
		if now-j.joined > joinDeadline {
			return fmt.Errorf("learner %d joined at %v and had no first sync by %v", j.id, j.joined, now)
		}
		kept = append(kept, j)
	}
	clear(e.pending[len(kept):])
	e.pending = kept
	return nil
}

// setUp builds the population and warms it until every learner is synced.
func (e *episode) setUp() error {
	if err := e.w.build(e); err != nil {
		return err
	}
	if err := e.t.Start(); err != nil {
		return err
	}
	deadline := e.t.Sim().Now() + warmFor + joinDeadline
	for elapsed := time.Duration(0); elapsed < warmFor || len(e.pending) > 0; elapsed += e.tick {
		if e.t.Sim().Now() > deadline {
			return errors.New("set-up: learners still unsynced after warm-up")
		}
		if err := e.t.Advance(e.tick); err != nil {
			return err
		}
		if err := e.checkJoins(); err != nil {
			return err
		}
	}
	return nil
}

func (e *episode) mergeAge(l *learner) {
	d := l.vr.Metrics().Histogram("pose.age").Delta(&l.cut)
	e.poseAge.Merge(&d)
}

// window holds what one measured window produced.
type window struct {
	sim      time.Duration
	steps    []time.Duration
	stepWall time.Duration
	cpu      time.Duration
	allocs   uint64
	heapLive uint64
	egress   uint64
	dropped  uint64 // frames the fabric dropped
	// fallbacks counts snapshots sent to peers past their first contact.
	fallbacks uint64
	// owed is the suppressed-change debt across filtered peers at the end.
	owed int
	// spans is the traced rows' self time inside the window (traced topo).
	spans tracer
}

// measure steps the deployment one server tick at a time for length of
// virtual time, timing each step.
func (e *episode) measure(length time.Duration) (window, error) {
	var w window
	sim := e.t.Sim()
	for _, l := range e.live {
		l.cut = *l.vr.Metrics().Histogram("pose.age")
	}
	e.inWindow = true
	egress0 := e.t.Cloud().Metrics().Counter("sync.bytes.sent").Value()
	dropped0 := e.t.Net().Stats().Dropped
	snaps0, _ := e.peerStats()
	var spans0 tracer
	if tt, ok := e.t.(*tracedTopo); ok {
		spans0 = tt.tr.snapshot()
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	cpu0 := processCPU()
	start := sim.Now()
	end := start + length
	for sim.Now() < end {
		t0 := time.Now()
		if e.w.churn != nil {
			if err := e.w.churn(e, sim.Now()-start); err != nil {
				return w, err
			}
		}
		if err := e.t.Advance(e.tick); err != nil {
			return w, err
		}
		dt := time.Since(t0)
		w.steps = append(w.steps, dt)
		w.stepWall += dt
		if err := e.checkJoins(); err != nil {
			return w, err
		}
	}
	w.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&ms)
	w.allocs = ms.Mallocs - mallocs0
	w.sim = sim.Now() - start
	w.egress = e.t.Cloud().Metrics().Counter("sync.bytes.sent").Value() - egress0
	w.dropped = e.t.Net().Stats().Dropped - dropped0
	snaps, owed := e.peerStats()
	for p, n := range snaps {
		if n0, ok := snaps0[p]; ok {
			w.fallbacks += n - n0
		} else if n > 0 {
			w.fallbacks += n - 1 // the first-contact snapshot is no fallback
		}
	}
	w.owed = owed
	if tt, ok := e.t.(*tracedTopo); ok {
		w.spans = tt.tr.since(spans0)
	}
	for _, id := range e.liveIDs() {
		e.mergeAge(e.live[id])
	}
	e.inWindow = false
	runtime.GC()
	runtime.ReadMemStats(&ms)
	w.heapLive = ms.HeapAlloc
	return w, nil
}

// peerStats returns the snapshots sent to each replication peer of the
// cloud and the relays, and the owed debt summed over those peers.
func (e *episode) peerStats() (map[string]uint64, int) {
	snaps := make(map[string]uint64)
	owed := 0
	for i, r := range append([]*core.Replicator{e.t.Cloud().Runtime().Replicator()}, e.relayReplicators()...) {
		for _, p := range r.Peers() {
			st, _ := r.StatsOf(p) // p comes from Peers, so it is known
			snaps[fmt.Sprintf("%d/%s", i, p)] = st.Snapshots
			owed += st.Owed
		}
	}
	return snaps, owed
}

func (e *episode) relayReplicators() []*core.Replicator {
	out := make([]*core.Replicator, len(e.relays))
	for i, r := range e.relays {
		out[i] = r.Runtime().Replicator()
	}
	return out
}

func (e *episode) liveIDs() []protocol.ParticipantID {
	ids := make([]protocol.ParticipantID, 0, len(e.live))
	for id := range e.live {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// convergence is the oracle's verdict for one episode.
type convergence struct {
	// replicas holds, per learner, the time from stop until the last of
	// its replica's pairs that converged by the deadline did so (for good:
	// it stayed matched through the end). A learner whose every diverged
	// pair stayed diverged has no entry.
	replicas    []time.Duration
	pairs       int // (learner, entity) pairs in the final check
	unconverged int // pairs still diverged at the deadline
	// localPairs counts the (learner, campus-local entity) pairs at stop,
	// which the oracle leaves out (see diverged).
	localPairs int
}

// pairKey names one (learner, entity) pair.
type pairKey struct{ learner, entity protocol.ParticipantID }

// converge stops every publisher and the churn schedule, then checks each
// tick whether every learner's replica matches the cloud world, until all
// pairs match or the deadline passes.
func (e *episode) converge() (convergence, error) {
	var c convergence
	if err := e.t.StopPublishers(); err != nil {
		return c, err
	}
	stop := e.t.Sim().Now()
	lastDiverged := make(map[pairKey]time.Duration)
	var divergedNow []pairKey
	for {
		if err := e.t.Advance(e.tick); err != nil {
			return c, err
		}
		if err := e.checkJoins(); err != nil {
			return c, err
		}
		now := e.t.Sim().Now()
		var locals int
		divergedNow, c.pairs, locals = e.diverged(divergedNow[:0])
		if now-stop <= e.tick {
			c.localPairs = locals
		}
		for _, p := range divergedNow {
			lastDiverged[p] = now
		}
		if len(divergedNow) == 0 || now-stop >= convergeDeadline {
			break
		}
	}
	c.unconverged = len(divergedNow)
	stuck := make(map[protocol.ParticipantID]bool)
	final := make(map[pairKey]bool, len(divergedNow))
	for _, p := range divergedNow {
		final[p] = true
		stuck[p.learner] = true
	}
	// A pair diverged last at tick t matched from t+tick on; a learner
	// with no diverged pair matched at the first check.
	after := make(map[protocol.ParticipantID]time.Duration)
	for p, t := range lastDiverged {
		if !final[p] {
			after[p.learner] = max(after[p.learner], t+e.tick-stop)
		}
	}
	for _, id := range e.liveIDs() {
		d, ok := after[id]
		if !ok {
			if stuck[id] {
				continue
			}
			d = e.tick
		}
		c.replicas = append(c.replicas, d)
	}
	return c, nil
}

// cullRadius is the interest policy's cull distance; beyond it a learner
// legitimately holds a stale copy (or none) of an unpinned entity.
var cullRadius = interest.NewPolicy().CullRadius

// diverged compares every learner's replica with the cloud world on the
// fields a display uses, over the entities the learner's serving node does
// not cull. Entities the replica holds that
// the world no longer has are divergent too. It appends the divergent pairs
// to buf and returns them with the number of pairs checked and the number
// of campus-local pairs left out.
//
// Campus-local entities (Home != 0) are left out: with its headsets and
// sensors stopped, an edge keeps authoring each local from its fusion
// filter's prediction every tick, so the world copy keeps moving until the
// edge despawns the local at its StaleAfter horizon (2 s by default). A
// pair on such an entity measures that timer, not a lost update. The only
// pinned entities, educators, are campus locals, so none is checked.
func (e *episode) diverged(buf []pairKey) ([]pairKey, int, int) {
	pairs, locals := 0, 0
	world := e.t.Cloud().World()
	for _, id := range e.liveIDs() {
		l := e.live[id]
		grid := e.t.Cloud().Runtime().Grid()
		if l.via != nil {
			grid = l.via.Runtime().Grid()
		}
		store := l.vr.ReplicaStore()
		me, placed := grid.Position(id)
		world.Range(func(eid protocol.ParticipantID, want protocol.EntityState) {
			if eid == id {
				return
			}
			if want.Home != 0 {
				locals++
				return
			}
			if placed {
				if p, ok := grid.Position(eid); ok {
					dx, dz := p.X-me.X, p.Z-me.Z
					if dx*dx+dz*dz > cullRadius*cullRadius {
						return
					}
				}
			}
			pairs++
			got, ok := store.Get(eid)
			if !ok || got.CapturedAt != want.CapturedAt || got.Pose != want.Pose ||
				got.VelMMS != want.VelMMS || got.Seat != want.Seat ||
				got.Flags != want.Flags || !bytes.Equal(got.Expression, want.Expression) {
				buf = append(buf, pairKey{id, eid})
			}
		})
		store.Range(func(eid protocol.ParticipantID, got protocol.EntityState) {
			if got.Home != 0 {
				return
			}
			if _, ok := world.Get(eid); !ok {
				pairs++
				buf = append(buf, pairKey{id, eid})
			}
		})
	}
	return buf, pairs, locals
}

// tearDown stops every node, drains the fabric and audits frame leaks
// against live0, the count before the episode was built.
func (e *episode) tearDown(live0 int64) error {
	e.t.Teardown()
	if err := e.t.Advance(drainFor); err != nil {
		return err
	}
	if n := protocol.LiveFrames() - live0; n != 0 {
		return fmt.Errorf("%d frames still live after stop and drain", n)
	}
	return nil
}
