// Package geo is the deployment layer that turns the paper's regional-server
// answer to challenge C2 into a running system: it takes a region.Topology
// plus a client census, runs the greedy k-center PlaceRelays/Assign
// placement, and stands up one node.Runtime-backed relay per placed region
// over the endpoint.Transport API — identically on the deterministic netsim
// fabric (links derived from the latency matrix) and on real TCP sockets.
//
// On top of the static topology it implements live session handoff:
// Deployment.Migrate moves a joined client between relays (or between the
// cloud and a relay) without losing or duplicating an update. The old
// server's replication baseline — ack floor plus owed-set debt — transfers
// to the new one (core.Replicator.ExportBaseline/ImportBaseline), the old
// access path's in-flight frames are cancelled or drained by the fabric,
// and the importing runtime conservatively re-opens owed debt for content
// the transferred floor cannot prove delivered, so the owed sweep converges
// exactly the entities the delta walk would miss. Two triggers drive
// migration: client roam — Roam() moves a session when another server beats
// its current one by more than Config.RoamHysteresis — and relay drain —
// Drain() migrates every client off a relay, then reclaims it.
//
// The roam hysteresis knob: a session migrates only when
//
//	latency(current server) > latency(best server) + RoamHysteresis
//
// so two relays at near-equal distance never ping-pong a client between
// them. The default, 15 ms, is about two render frames: an improvement
// smaller than that is imperceptible in pose age and not worth a handoff.
// Raise it to make placements stickier under churny censuses; lower it
// toward zero only in tests that want migrations on any improvement.
package geo

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"metaclass/internal/client"
	"metaclass/internal/cloud"
	"metaclass/internal/core"
	"metaclass/internal/endpoint"
	"metaclass/internal/interest"
	"metaclass/internal/mathx"
	"metaclass/internal/metrics"
	"metaclass/internal/netsim"
	"metaclass/internal/protocol"
	"metaclass/internal/region"
	"metaclass/internal/trace"
	"metaclass/internal/vclock"
)

// Deployment errors.
var (
	ErrUnknownSession = errors.New("geo: unknown session")
	ErrUnknownRelay   = errors.New("geo: no relay in region")
	ErrRelayExists    = errors.New("geo: relay already deployed")
)

// Config parameterizes a Deployment.
type Config struct {
	// Topology is the region graph (required).
	Topology *region.Topology
	// CloudRegion is where the cloud server lives (required; must be a
	// topology region).
	CloudRegion region.ID
	// TickHz is the server fan-out rate (default 30).
	TickHz float64
	// PublishHz is the client pose upload rate (default 20).
	PublishHz float64
	// Interest is the client fan-out policy (nil = broadcast).
	Interest *interest.Policy
	// Repl tunes every server's replicator.
	Repl core.ReplConfig
	// RoamHysteresis is how much better (one-way) another server must be
	// before Roam migrates a session to it (default 15 ms; see package doc).
	RoamHysteresis time.Duration
	// AccessLink maps a client's one-way backbone latency to its access-path
	// link model (default AccessLink). Ignored by fabrics that shape nothing.
	AccessLink func(oneWay time.Duration) netsim.LinkConfig
	// BackboneLink maps the cloud-relay one-way latency to the provisioned
	// backbone link model (default BackboneLink).
	BackboneLink func(oneWay time.Duration) netsim.LinkConfig
	// Script builds a session's motion script (default: seated, anchored by
	// ID so no two sessions overlap).
	Script func(id protocol.ParticipantID) trace.MotionScript
}

func (c *Config) applyDefaults() {
	if c.TickHz <= 0 {
		c.TickHz = 30
	}
	if c.PublishHz <= 0 {
		c.PublishHz = 20
	}
	if c.RoamHysteresis <= 0 {
		c.RoamHysteresis = 15 * time.Millisecond
	}
	if c.AccessLink == nil {
		c.AccessLink = AccessLink
	}
	if c.BackboneLink == nil {
		c.BackboneLink = BackboneLink
	}
	if c.Script == nil {
		c.Script = func(id protocol.ParticipantID) trace.MotionScript {
			return trace.Seated{
				Anchor: mathx.V3(float64(id%16)*1.2, 0, float64(id/16)*1.2),
				Phase:  float64(id),
			}
		}
	}
}

// Session is one live client: its VR endpoint plus where it currently lives
// and which server currently serves it.
type Session struct {
	ID     protocol.ParticipantID
	Region region.ID
	VR     *client.VR

	// served is the region of the serving relay; "" means the cloud.
	served region.ID
	addr   endpoint.Addr
}

// ServedBy returns the serving relay's region, or "" for the cloud.
func (s *Session) ServedBy() region.ID { return s.served }

// Deployment is a live geo-sharded topology: one cloud, the placed relays,
// and the client sessions routed between them.
type Deployment struct {
	cfg Config
	sim *vclock.Sim
	fab Fabric

	cloud     *cloud.Server
	cloudAddr endpoint.Addr

	relays    map[region.ID]*cloud.Relay
	relayAddr map[region.ID]endpoint.Addr

	sessions map[protocol.ParticipantID]*Session
	census   map[region.ID]int

	reg         *metrics.Registry
	mDeploys    *metrics.Counter
	mMigrations *metrics.Counter
	mRoams      *metrics.Counter
	mDrains     *metrics.Counter

	started bool
}

// New creates a deployment: the cloud comes up immediately (address
// "geo-cloud"); relays are placed later via Deploy or Rebalance.
func New(sim *vclock.Sim, fab Fabric, cfg Config) (*Deployment, error) {
	cfg.applyDefaults()
	if cfg.Topology == nil {
		return nil, errors.New("geo: Config.Topology is required")
	}
	if _, err := cfg.Topology.Latency(cfg.CloudRegion, cfg.CloudRegion); err != nil {
		return nil, fmt.Errorf("geo: cloud region: %w", err)
	}
	d := &Deployment{
		cfg:       cfg,
		sim:       sim,
		fab:       fab,
		cloudAddr: "geo-cloud",
		relays:    make(map[region.ID]*cloud.Relay),
		relayAddr: make(map[region.ID]endpoint.Addr),
		sessions:  make(map[protocol.ParticipantID]*Session),
		census:    make(map[region.ID]int),
		reg:       metrics.NewRegistry("geo"),
	}
	d.mDeploys = d.reg.Counter("geo.relays.deployed")
	d.mMigrations = d.reg.Counter("geo.migrations")
	d.mRoams = d.reg.Counter("geo.roams")
	d.mDrains = d.reg.Counter("geo.drains")
	tr, err := fab.Transport(d.cloudAddr)
	if err != nil {
		return nil, err
	}
	cl, err := cloud.New(sim, tr, cloud.Config{
		TickHz:   cfg.TickHz,
		Interest: cfg.Interest,
		Repl:     cfg.Repl,
	})
	if err != nil {
		return nil, err
	}
	d.cloud = cl
	return d, nil
}

// Sim returns the deployment's virtual clock.
func (d *Deployment) Sim() *vclock.Sim { return d.sim }

// Cloud returns the cloud server.
func (d *Deployment) Cloud() *cloud.Server { return d.cloud }

// Metrics returns the deployment-level control-plane registry.
func (d *Deployment) Metrics() *metrics.Registry { return d.reg }

// Relay returns the relay deployed in reg.
func (d *Deployment) Relay(reg region.ID) (*cloud.Relay, bool) {
	r, ok := d.relays[reg]
	return r, ok
}

// RelayRegions returns the deployed relay regions, ascending.
func (d *Deployment) RelayRegions() []region.ID {
	out := make([]region.ID, 0, len(d.relays))
	for r := range d.relays {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Session returns the session for id.
func (d *Deployment) Session(id protocol.ParticipantID) (*Session, bool) {
	s, ok := d.sessions[id]
	return s, ok
}

// SessionIDs returns all live session IDs, ascending — the pinned iteration
// order for every sweep over sessions.
func (d *Deployment) SessionIDs() []protocol.ParticipantID {
	out := make([]protocol.ParticipantID, 0, len(d.sessions))
	for id := range d.sessions {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Census returns a copy of the per-region client counts.
func (d *Deployment) Census() map[region.ID]int {
	out := make(map[region.ID]int, len(d.census))
	for r, n := range d.census {
		out[r] = n
	}
	return out
}

// latency is the topology's one-way latency with same-region pairs allowed.
func (d *Deployment) latency(a, b region.ID) (time.Duration, error) {
	return d.cfg.Topology.Latency(a, b)
}

// serverRegionOf maps a serving region ("" = cloud) to its topology region.
func (d *Deployment) serverRegionOf(served region.ID) region.ID {
	if served == "" {
		return d.cfg.CloudRegion
	}
	return served
}

func (d *Deployment) serverAddr(served region.ID) endpoint.Addr {
	if served == "" {
		return d.cloudAddr
	}
	return d.relayAddr[served]
}

// bestServer returns the lowest-latency server for a client in reg,
// excluding the given serving region ("" excludes nothing; the cloud cannot
// be excluded). Ties prefer the cloud, then the lexicographically smallest
// relay region, so the choice is deterministic.
func (d *Deployment) bestServer(reg region.ID, exclude region.ID) (region.ID, time.Duration, error) {
	best := region.ID("")
	bestLat, err := d.latency(reg, d.cfg.CloudRegion)
	if err != nil {
		return "", 0, err
	}
	for _, rr := range d.RelayRegions() {
		if exclude != "" && rr == exclude {
			continue
		}
		lat, err := d.latency(reg, rr)
		if err != nil {
			return "", 0, err
		}
		if lat < bestLat {
			best, bestLat = rr, lat
		}
	}
	return best, bestLat, nil
}

// Join creates a session for a client in reg and routes it to the current
// best server (the cloud until relays are deployed). Returns the session.
func (d *Deployment) Join(id protocol.ParticipantID, reg region.ID) (*Session, error) {
	if _, ok := d.sessions[id]; ok {
		return nil, fmt.Errorf("geo: session %d already joined", id)
	}
	if _, err := d.latency(reg, reg); err != nil {
		return nil, err
	}
	served, lat, err := d.bestServer(reg, "")
	if err != nil {
		return nil, err
	}
	addr := endpoint.Addr(fmt.Sprintf("geo-vr-%04d", id))
	tr, err := d.fab.Transport(addr)
	if err != nil {
		return nil, err
	}
	vr, err := client.NewVR(d.sim, tr, client.VRConfig{
		Participant: id,
		Server:      d.serverAddr(served),
		PublishHz:   d.cfg.PublishHz,
		Script:      d.cfg.Script(id),
	})
	if err != nil {
		return nil, err
	}
	if err := d.fab.Link(d.serverAddr(served), addr, d.cfg.AccessLink(lat)); err != nil {
		return nil, err
	}
	if served == "" {
		if err := d.cloud.AddClient(id, addr); err != nil {
			return nil, err
		}
	} else {
		if err := d.relays[served].AddClient(id, addr); err != nil {
			return nil, err
		}
		if err := d.cloud.RegisterRelayClient(id, d.relayAddr[served]); err != nil {
			return nil, err
		}
	}
	s := &Session{ID: id, Region: reg, VR: vr, served: served, addr: addr}
	d.sessions[id] = s
	d.census[reg]++
	if d.started {
		if err := vr.Start(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Leave tears a session fully down: server-side state (seat, authored
// entity, replication peer), the access link, and the client endpoint.
func (d *Deployment) Leave(id protocol.ParticipantID) error {
	s, ok := d.sessions[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownSession, id)
	}
	s.VR.Stop()
	if s.served != "" {
		if err := d.relays[s.served].RemoveClient(id); err != nil {
			return err
		}
	}
	if err := d.cloud.RemoveClient(id); err != nil {
		return err
	}
	if err := d.fab.Unlink(d.serverAddr(s.served), s.addr); err != nil {
		return err
	}
	if err := d.fab.Remove(s.addr); err != nil {
		return err
	}
	delete(d.sessions, id)
	d.census[s.Region]--
	if d.census[s.Region] <= 0 {
		delete(d.census, s.Region)
	}
	return nil
}

// Deploy runs PlaceRelays(k) over the topology and the current census and
// stands up a relay in every placed region not already covered (regions the
// placement drops are left running — use Rebalance to retire them). Clients
// are not moved; call Roam to migrate them to their new nearest servers.
// Returns the placed regions.
func (d *Deployment) Deploy(k int) ([]region.ID, error) {
	placed, err := d.cfg.Topology.PlaceRelays(k, d.census)
	if err != nil {
		return nil, err
	}
	for _, rr := range placed {
		if _, ok := d.relays[rr]; ok {
			continue
		}
		if err := d.deployRelay(rr); err != nil {
			return nil, err
		}
	}
	return placed, nil
}

// deployRelay stands one relay up: endpoint, backbone link to the cloud,
// replication registration, and (if the deployment is live) its tick loop.
func (d *Deployment) deployRelay(rr region.ID) error {
	if _, ok := d.relays[rr]; ok {
		return fmt.Errorf("%w: %s", ErrRelayExists, rr)
	}
	lat, err := d.latency(d.cfg.CloudRegion, rr)
	if err != nil {
		return err
	}
	addr := endpoint.Addr("geo-relay-" + string(rr))
	tr, err := d.fab.Transport(addr)
	if err != nil {
		return err
	}
	rel, err := cloud.NewRelay(d.sim, tr, cloud.RelayConfig{
		Upstream: d.cloudAddr,
		TickHz:   d.cfg.TickHz,
		Interest: d.cfg.Interest,
		Repl:     d.cfg.Repl,
	})
	if err != nil {
		return err
	}
	if err := d.fab.Link(d.cloudAddr, addr, d.cfg.BackboneLink(lat)); err != nil {
		return err
	}
	if err := d.cloud.AddRelay(addr); err != nil {
		return err
	}
	d.relays[rr] = rel
	d.relayAddr[rr] = addr
	d.mDeploys.Inc()
	if d.started {
		return rel.Start()
	}
	return nil
}

// Migrate hands a live session off to the server in region `to` ("" = the
// cloud) — the drain-transfer-adopt sequence the package doc describes.
// Synchronous: it runs between simulation events, so no tick interleaves
// with the cut. A no-op when the session is already served there.
func (d *Deployment) Migrate(id protocol.ParticipantID, to region.ID) error {
	s, ok := d.sessions[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownSession, id)
	}
	if to != "" {
		if _, ok := d.relays[to]; !ok {
			return fmt.Errorf("%w: %s", ErrUnknownRelay, to)
		}
	}
	if s.served == to {
		return nil
	}
	accessLat, err := d.latency(s.Region, d.serverRegionOf(to))
	if err != nil {
		return err
	}
	oldAddr, newAddr := d.serverAddr(s.served), d.serverAddr(to)

	// 1. Export the replication baseline and retire the old server's session
	// state. The cloud keeps seat and authored entity either way — only the
	// replication route changes hands.
	var b core.PeerBaseline
	switch {
	case s.served == "": // cloud -> relay
		b, err = d.cloud.DemoteClient(id, newAddr)
	default: // relay -> relay or relay -> cloud
		b, err = d.relays[s.served].ReleaseClient(id)
	}
	if err != nil {
		return err
	}

	// 2. Cut the old access path. Netsim cancels in-flight frames on the
	// pair (references released, handlers not invoked); TCP closes the
	// connection. Anything the old server had planned for this client dies
	// here — which is exactly why the baseline flattens in-flight sends back
	// to owed debt.
	if err := d.fab.Unlink(oldAddr, s.addr); err != nil {
		return err
	}

	// 3. Bring up the new access path before the new server plans a tick.
	if err := d.fab.Link(newAddr, s.addr, d.cfg.AccessLink(accessLat)); err != nil {
		return err
	}

	// 4. Adopt the session at the new server, seeding its replicator from
	// the transferred baseline (plus the conservative re-owe; see
	// node.Runtime.ImportClientBaseline).
	switch {
	case to == "": // relay -> cloud
		if err := d.cloud.PromoteClient(id, s.addr, b); err != nil {
			return err
		}
	default:
		if err := d.relays[to].AdoptClient(id, s.addr, b); err != nil {
			return err
		}
		if s.served != "" { // relay -> relay: the cloud tracks the new route
			if err := d.cloud.RetargetClient(id, newAddr); err != nil {
				return err
			}
		}
	}

	// 5. Repoint the client: publishes, pings, and auto-acks follow.
	s.VR.Retarget(newAddr)
	s.served = to
	d.mMigrations.Inc()
	return nil
}

// Roam sweeps every session (ascending ID) and migrates the ones whose
// current server is beaten by more than RoamHysteresis. Returns how many
// sessions moved.
func (d *Deployment) Roam() (int, error) {
	moved := 0
	for _, id := range d.SessionIDs() {
		s := d.sessions[id]
		cur, err := d.latency(s.Region, d.serverRegionOf(s.served))
		if err != nil {
			return moved, err
		}
		best, bestLat, err := d.bestServer(s.Region, "")
		if err != nil {
			return moved, err
		}
		if best == s.served || cur <= bestLat+d.cfg.RoamHysteresis {
			continue
		}
		if err := d.Migrate(id, best); err != nil {
			return moved, err
		}
		moved++
		d.mRoams.Inc()
	}
	return moved, nil
}

// Drain retires the relay in reg: every session it serves migrates to its
// next-best server first (ascending ID), then the relay stops ticking, the
// cloud drops its replication peer, and the fabric reclaims the endpoint —
// in that order, so no tick can plan a frame for a route being torn down
// and nothing the relay still holds can leak.
func (d *Deployment) Drain(reg region.ID) error {
	rel, ok := d.relays[reg]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownRelay, reg)
	}
	addr := d.relayAddr[reg]
	for _, id := range d.SessionIDs() {
		s := d.sessions[id]
		if s.served != reg {
			continue
		}
		to, _, err := d.bestServer(s.Region, reg)
		if err != nil {
			return err
		}
		if err := d.Migrate(id, to); err != nil {
			return err
		}
	}
	rel.Stop()
	if err := d.cloud.RemoveRelay(addr); err != nil {
		return err
	}
	if err := d.fab.Unlink(d.cloudAddr, addr); err != nil {
		return err
	}
	if err := d.fab.Remove(addr); err != nil {
		return err
	}
	delete(d.relays, reg)
	delete(d.relayAddr, reg)
	d.mDrains.Inc()
	return nil
}

// Rebalance re-places relays for the current census (region.Replan): new
// regions come up, sessions roam to their best servers, and relays the
// placement dropped drain. Returns the regions added and retired and how
// many sessions moved.
func (d *Deployment) Rebalance(k int) (added, retired []region.ID, moved int, err error) {
	add, retire, _, err := d.cfg.Topology.Replan(d.RelayRegions(), k, d.census)
	if err != nil {
		return nil, nil, 0, err
	}
	for _, rr := range add {
		if err := d.deployRelay(rr); err != nil {
			return add, nil, 0, err
		}
	}
	if moved, err = d.Roam(); err != nil {
		return add, nil, moved, err
	}
	for _, rr := range retire {
		if err := d.Drain(rr); err != nil {
			return add, retire, moved, err
		}
	}
	return add, retire, moved, nil
}

// Start brings the whole deployment live at the same virtual instant: the
// cloud, every deployed relay (ascending region), and every joined session
// (ascending ID). Starting everything together keeps the server tick
// domains aligned, which is what lets a handoff's transferred ack floor be
// honored instead of falling back to a snapshot.
func (d *Deployment) Start() error {
	if d.started {
		return errors.New("geo: already started")
	}
	if err := d.cloud.Start(); err != nil {
		return err
	}
	for _, rr := range d.RelayRegions() {
		if err := d.relays[rr].Start(); err != nil {
			return err
		}
	}
	for _, id := range d.SessionIDs() {
		if err := d.sessions[id].VR.Start(); err != nil {
			return err
		}
	}
	d.started = true
	return nil
}

// Stop halts every tick loop (sessions, relays, cloud) and releases the last
// tick's cohort frames. Endpoints stay on the fabric; in-flight traffic
// drains as the simulation runs on (or the fabric closes).
func (d *Deployment) Stop() {
	for _, id := range d.SessionIDs() {
		d.sessions[id].VR.Stop()
	}
	for _, rr := range d.RelayRegions() {
		d.relays[rr].Stop()
	}
	d.cloud.Stop()
	d.started = false
}
