package main

import (
	"fmt"
	"math"
	"time"

	"metaclass/classroom"
	"metaclass/internal/cloud"
	"metaclass/internal/mathx"
	"metaclass/internal/netsim"
	"metaclass/internal/trace"
)

// workload is one seeded classroom shape. build stands the population up
// during set-up; churn, when set, runs the join/leave/handoff schedule once
// per server tick of the measured window.
type workload struct {
	name string
	why  string
	cfg  classroom.Config
	// simPerWall is the workload's nominal realtime factor on the reference
	// host: a run of --seconds measures seconds*simPerWall simulated
	// seconds, split over episodes. It fixes the simulated length, so the
	// virtual-time metrics depend only on the seed and --seconds.
	simPerWall float64
	build      func(e *episode) error
	churn      func(e *episode, at time.Duration) error
}

// tick is the server tick interval the window is stepped in.
func (w *workload) tick() time.Duration {
	hz := w.cfg.TickHz
	if hz <= 0 {
		hz = 30
	}
	return time.Duration(float64(time.Second) / hz)
}

var workloads = []*workload{
	{
		name:       "lecture",
		why:        "E4 shape: 100 learners at 1.2 m pitch, interest on, 30 Hz; dense, so the receive side dominates",
		cfg:        classroom.Config{EnableInterest: true},
		simPerWall: 6,
		build:      buildLecture,
	},
	{
		name:       "mega",
		why:        "E12 shape: 256 learners at 3.2 m pitch, 20 Hz, pinned performer, relay quarter; sparse tiers load the server plan",
		cfg:        classroom.Config{EnableInterest: true, TickHz: 20, VRRows: 16, VRCols: 16, VRPitch: 3.2},
		simPerWall: 1.5,
		build:      buildMega,
	},
	{
		name:       "blended-churn",
		why:        "two MR campuses, relay and direct learners under a join/leave storm with handoffs: writes beside reads",
		cfg:        classroom.Config{EnableInterest: true},
		simPerWall: 6,
		build:      buildBlended,
		churn:      churnBlended,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// seated is a seated learner at anchor with a seed-drawn sway phase, so the
// seed reaches every pose stream.
func seated(e *episode, x, z float64) trace.Seated {
	return trace.Seated{Anchor: mathx.V3(x, 0, z), Phase: e.rng.Float64() * 2 * math.Pi}
}

func buildLecture(e *episode) error {
	link := netsim.ResidentialBroadband(25 * time.Millisecond)
	for i := 0; i < 100; i++ {
		s := seated(e, float64(i%25)*1.2, float64(i/25)*1.2)
		if err := e.join(fmt.Sprintf("learner-%03d", i), s, link, nil, true); err != nil {
			return err
		}
	}
	return nil
}

func buildMega(e *episode) error {
	venue, err := e.t.AddCampus("venue", 1)
	if err != nil {
		return err
	}
	if _, err := e.t.AddLocal(venue, "performer", true, trace.Lecturer{
		Left: mathx.V3(-3, 0, 0), Right: mathx.V3(3, 0, 0)}); err != nil {
		return err
	}
	relay, err := e.addRelay("east", backbone())
	if err != nil {
		return err
	}
	// 16x16 audience at 3.2 m; the back quarter attaches through the relay.
	link := netsim.ResidentialBroadband(25 * time.Millisecond)
	for i := 0; i < 256; i++ {
		var via *cloud.Relay
		if i/16 >= 12 {
			via = relay
		}
		s := seated(e, float64(i%16)*3.2, float64(i/16)*3.2)
		if err := e.join(fmt.Sprintf("crowd-%03d", i), s, link, via, true); err != nil {
			return err
		}
	}
	return nil
}

// backbone is the long-haul peering link to the regional relay.
func backbone() netsim.LinkConfig {
	return netsim.LinkConfig{
		Latency: 40 * time.Millisecond, Jitter: 2 * time.Millisecond,
		LossRate: 0.0005, Bandwidth: 10e9,
	}
}

// Blended-churn shape. Each figure is taken from a shape the repository
// already runs, named beside it, except the handoff rate, which is chosen.
const (
	// blendedLocals learners per campus, seated as E1's unit case seats them
	// (buildUnitCase in internal/experiments/sync.go): rows of 8 at 1.2 m.
	blendedLocals = 15
	// blendedBase remote learners on an 8-wide 1.2 m grid: the warm class
	// BenchmarkColdJoin joins against.
	blendedBase = 48
	// relayEvery: every fourth learner attaches through the regional relay,
	// E12's relay quarter.
	relayEvery = 4
	// E11's largest storm (internal/experiments/churn.go): 8 learners join
	// every 500 ms and each batch leaves two events later, a 1 s stay.
	stormEvery = 500 * time.Millisecond
	stormJoins = 8
	stormStay  = 2 * stormEvery
	// migrateEvery is a chosen stress point: no experiment fixes a handoff
	// rate. One per second puts a handoff beside every second storm, about
	// 20 per episode window at --seconds 10, in both directions, so
	// migrate_us is a median of many calls, while handoffs stay a small
	// share of the membership changes the storm makes.
	migrateEvery = time.Second
	// blendedVenueSide is the side of the square churn learners are seated
	// in, drawn from the seed. Chosen to cover the base grid (8.4 by 6 m)
	// with a margin, so a churner lands in the focus, near or far tier of
	// different base learners.
	blendedVenueSide = 12.0
)

func buildBlended(e *episode) error {
	gz, err := e.t.AddCampus("gz", 1)
	if err != nil {
		return err
	}
	cwb, err := e.t.AddCampus("cwb", 2)
	if err != nil {
		return err
	}
	if err := e.t.ConnectCampuses(gz, cwb); err != nil {
		return err
	}
	if _, err := e.t.AddLocal(gz, "prof", true, trace.Lecturer{
		Left: mathx.V3(-3, 0, 0), Right: mathx.V3(3, 0, 0)}); err != nil {
		return err
	}
	for i := 0; i < blendedLocals; i++ {
		for _, c := range []int{gz, cwb} {
			s := seated(e, float64(i%8)-3.5, 2+float64(i/8)*1.2)
			if _, err := e.t.AddLocal(c, fmt.Sprintf("local-%d-%d", c, i), false, s); err != nil {
				return err
			}
		}
	}
	if _, err := e.addRelay("east", backbone()); err != nil {
		return err
	}
	for i := 0; i < blendedBase; i++ {
		s := seated(e, float64(i%8)*1.2, float64(i/8)*1.2)
		if err := e.join(fmt.Sprintf("remote-%02d", i), s, e.accessLink(), e.serverFor(i), true); err != nil {
			return err
		}
	}
	return nil
}

// accessLink draws a residential access link with a seeded one-way latency
// in E1's 20-59 ms range (buildUnitCase steps it by learner index instead).
func (e *episode) accessLink() netsim.LinkConfig {
	return netsim.ResidentialBroadband(time.Duration(20+e.rng.Intn(40)) * time.Millisecond)
}

// churnLink is E11's storm link: residential broadband at 25 ms with 1 %
// loss.
func churnLink() netsim.LinkConfig {
	l := netsim.ResidentialBroadband(25 * time.Millisecond)
	l.LossRate = 0.01
	return l
}

// serverFor sends every relayEvery-th learner through the relay. The split
// is fixed rather than drawn: cloud egress depends on it, and a drawn split
// would move egress from seed to seed more than the benchmark's bound.
func (e *episode) serverFor(i int) *cloud.Relay {
	if i%relayEvery == 0 {
		return e.relays[0]
	}
	return nil
}

// churnBlended runs the storm: every stormEvery, stormJoins learners join
// and stay stormStay; every migrateEvery, the next set-up learner hands off
// between the relay and the cloud. at is the time since the window opened.
func churnBlended(e *episode, at time.Duration) error {
	now := e.t.Sim().Now()
	for len(e.leaves) > 0 && e.leaves[0].at <= now {
		id := e.leaves[0].id
		e.leaves = e.leaves[1:]
		if err := e.leave(id); err != nil {
			return err
		}
	}
	if at >= e.nextStorm {
		e.nextStorm += stormEvery
		for i := 0; i < stormJoins; i++ {
			s := seated(e, e.rng.Float64()*blendedVenueSide, e.rng.Float64()*blendedVenueSide)
			e.churned++
			if err := e.join(fmt.Sprintf("churn-%d", e.churned), s, churnLink(), e.serverFor(e.churned), false); err != nil {
				return err
			}
			e.leaves = append(e.leaves, leaveRec{at: now + stormStay, id: e.lastJoin})
		}
	}
	if at >= e.nextMigrate {
		e.nextMigrate += migrateEvery
		if err := e.migrateNext(); err != nil {
			return err
		}
	}
	return nil
}
