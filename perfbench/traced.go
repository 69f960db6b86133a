package main

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"time"

	"metaclass/classroom"
	"metaclass/internal/avatar"
	"metaclass/internal/client"
	"metaclass/internal/cloud"
	"metaclass/internal/core"
	"metaclass/internal/edge"
	"metaclass/internal/endpoint"
	"metaclass/internal/expression"
	"metaclass/internal/interest"
	"metaclass/internal/netsim"
	"metaclass/internal/protocol"
	"metaclass/internal/sensors"
	"metaclass/internal/trace"
	"metaclass/internal/vclock"
)

// Span rows of the traced topology run. Each span is recorded in this
// file, around a call into a public function of the layer it names.
const (
	rowDeliver   = iota // vclock event that delivered a frame: netsim + heap
	rowTick             // vclock event whose sends came from a server: node tick
	rowPublish          // vclock event whose sends came from a VR client
	rowSensors          // any other vclock event: sensor sampling, fusion ingest
	rowRecvVR           // endpoint.Dispatcher receive at a VR client
	rowRecvCloud        // ... at the cloud
	rowRecvRelay        // ... at a relay
	rowRecvEdge         // ... at a campus edge
	rowSend             // netsim SendFrame (every node)
	rowJoin             // AddRemote: client.NewVR + links + server AddClient
	rowLeave            // RemoveRemote: server RemoveClient + host removal
	rowMigrate          // relay<->cloud handoff
	rowCount
)

var rowNames = [rowCount]string{
	"netsim.deliver", "node.tick", "vr.publish", "sensors.timers", "endpoint.receive.vr", "endpoint.receive.cloud",
	"endpoint.receive.relay", "endpoint.receive.edge", "netsim.send", "node.join",
	"node.leave", "node.migrate",
}

// tracer keeps spans in memory as per-row self time: a span's duration
// minus the part of it its child spans cover.
type tracer struct {
	self  [rowCount]time.Duration
	calls [rowCount]int
	stack []span
}

type span struct {
	row      int
	start    time.Time
	children time.Duration
	// event marks a vclock event span whose row its first direct child
	// (a receive or a send) has not set yet.
	event bool
}

func (t *tracer) begin(row int) {
	t.stack = append(t.stack, span{row: row, start: time.Now()})
}

// beginEvent opens a vclock event span; it counts as sensors.timers unless
// a receive or send runs directly inside it first.
func (t *tracer) beginEvent() {
	t.stack = append(t.stack, span{row: rowSensors, start: time.Now(), event: true})
}

// classify sets the row of the enclosing event span, when the caller runs
// directly inside one that is still unclassified.
func (t *tracer) classify(row int) {
	if n := len(t.stack); n > 0 && t.stack[n-1].event {
		t.stack[n-1].row = row
		t.stack[n-1].event = false
	}
}

func (t *tracer) end() {
	n := len(t.stack) - 1
	s := t.stack[n]
	t.stack = t.stack[:n]
	d := time.Since(s.start)
	row := s.row
	t.self[row] += d - s.children
	t.calls[row]++
	if n > 0 {
		t.stack[n-1].children += d
	}
}

// snapshot copies the row totals.
func (t *tracer) snapshot() tracer {
	return tracer{self: t.self, calls: t.calls}
}

// since returns the row totals accumulated after the snapshot s0.
func (t *tracer) since(s0 tracer) tracer {
	var d tracer
	for i := range d.self {
		d.self[i] = t.self[i] - s0.self[i]
		d.calls[i] = t.calls[i] - s0.calls[i]
	}
	return d
}

// tracedTransport times SendFrame and wraps the bound receiver. It
// forwards the optional Batcher extension only when the inner transport has
// it (see newTracedTransport), so the dispatcher sees the same capabilities.
type tracedTransport struct {
	inner   endpoint.Transport
	tr      *tracer
	recvRow int
	// eventRow is what a send directly inside a vclock event makes of the
	// event: a server's tick, or a client's publish.
	eventRow int
}

func (t *tracedTransport) SendFrame(to endpoint.Addr, f *protocol.Frame) error {
	t.tr.classify(t.eventRow)
	t.tr.begin(rowSend)
	err := t.inner.SendFrame(to, f)
	t.tr.end()
	return err
}

func (t *tracedTransport) LocalAddr() endpoint.Addr { return t.inner.LocalAddr() }
func (t *tracedTransport) Close() error             { return t.inner.Close() }

func (t *tracedTransport) Bind(r endpoint.Receiver) error {
	rr := tracedReceiver{inner: r, tr: t.tr, row: t.recvRow}
	if fr, ok := r.(endpoint.FrameReceiver); ok {
		return t.inner.Bind(&tracedFrameReceiver{rr, fr})
	}
	return t.inner.Bind(&rr)
}

type tracedBatchTransport struct {
	*tracedTransport
	b endpoint.Batcher
}

func (t *tracedBatchTransport) BeginBatch()       { t.b.BeginBatch() }
func (t *tracedBatchTransport) FlushBatch() error { return t.b.FlushBatch() }

func newTracedTransport(inner endpoint.Transport, tr *tracer, recvRow int) endpoint.Transport {
	t := &tracedTransport{inner: inner, tr: tr, recvRow: recvRow, eventRow: rowTick}
	if recvRow == rowRecvVR {
		t.eventRow = rowPublish
	}
	if b, ok := inner.(endpoint.Batcher); ok {
		return &tracedBatchTransport{t, b}
	}
	return t
}

type tracedReceiver struct {
	inner endpoint.Receiver
	tr    *tracer
	row   int
}

func (r *tracedReceiver) Receive(from endpoint.Addr, payload []byte) {
	r.tr.classify(rowDeliver)
	r.tr.begin(r.row)
	r.inner.Receive(from, payload)
	r.tr.end()
}

type tracedFrameReceiver struct {
	tracedReceiver
	fr endpoint.FrameReceiver
}

func (r *tracedFrameReceiver) ReceiveFrame(from endpoint.Addr, f *protocol.Frame) {
	r.tr.classify(rowDeliver)
	r.tr.begin(r.row)
	r.fr.ReceiveFrame(from, f)
	r.tr.end()
}

// tracedTopo rebuilds classroom.Deployment's topology from the node
// constructors, call for call in the deployment's order, with every
// endpoint on a timing transport. The benchmark fails when its virtual-time
// metrics differ from the deployment's, so any drift here is caught.
type tracedTopo struct {
	cfg      classroom.Config
	tr       *tracer
	sim      *vclock.Sim
	net      *netsim.Network
	interest *interest.Policy
	cloud    *cloud.Server
	campuses []*tracedCampus
	relays   []*cloud.Relay
	clients  map[protocol.ParticipantID]*client.VR
	relayOf  map[protocol.ParticipantID]*cloud.Relay
	nextID   protocol.ParticipantID
	started  bool
}

type tracedCampus struct {
	id      protocol.ClassroomID
	edge    *edge.Server
	array   *sensors.Array
	headset map[protocol.ParticipantID]*sensors.Headset
}

// applyDeploymentDefaults mirrors classroom.Config's unexported defaults.
func applyDeploymentDefaults(c *classroom.Config) {
	if c.TickHz <= 0 {
		c.TickHz = 30
	}
	if c.InterpDelay <= 0 {
		c.InterpDelay = 100 * time.Millisecond
	}
	if c.HeadsetHz <= 0 {
		c.HeadsetHz = 60
	}
	if c.RoomSensorCount <= 0 {
		c.RoomSensorCount = 4
	}
}

func newTracedTopo(cfg classroom.Config, tr *tracer) (*tracedTopo, error) {
	applyDeploymentDefaults(&cfg)
	sim := vclock.New(cfg.Seed)
	net := netsim.New(sim)
	var pol *interest.Policy
	if cfg.EnableInterest {
		pol = interest.NewPolicy()
	}
	cl, err := cloud.New(sim, newTracedTransport(net.Endpoint("cloud"), tr, rowRecvCloud), cloud.Config{
		TickHz: cfg.TickHz, VRRows: cfg.VRRows, VRCols: cfg.VRCols, VRPitch: cfg.VRPitch,
		InterpDelay: cfg.InterpDelay, Interest: pol, Parallelism: cfg.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	return &tracedTopo{
		cfg: cfg, tr: tr, sim: sim, net: net, interest: pol, cloud: cl,
		clients: make(map[protocol.ParticipantID]*client.VR),
		relayOf: make(map[protocol.ParticipantID]*cloud.Relay),
		nextID:  1,
	}, nil
}

func (t *tracedTopo) Sim() *vclock.Sim     { return t.sim }
func (t *tracedTopo) Net() *netsim.Network { return t.net }
func (t *tracedTopo) Cloud() *cloud.Server { return t.cloud }

func (t *tracedTopo) allocID() protocol.ParticipantID {
	id := t.nextID
	t.nextID++
	return id
}

func (t *tracedTopo) AddCampus(name string, id protocol.ClassroomID) (int, error) {
	addr := netsim.Addr("edge-" + name)
	es, err := edge.New(t.sim, newTracedTransport(t.net.Endpoint(addr), t.tr, rowRecvEdge), edge.Config{
		Classroom: id, TickHz: t.cfg.TickHz, InterpDelay: t.cfg.InterpDelay,
		Interest: t.interest, Parallelism: t.cfg.Parallelism,
	})
	if err != nil {
		return 0, err
	}
	link := netsim.EdgeToCloud()
	if t.cfg.CloudLink != nil {
		link = *t.cfg.CloudLink
	}
	if err := t.net.ConnectBoth(addr, netsim.Addr(t.cloud.Addr()), link); err != nil {
		return 0, err
	}
	if err := es.ConnectPeer(t.cloud.Addr()); err != nil {
		return 0, err
	}
	if err := t.cloud.ConnectEdge(endpoint.Addr(addr), id); err != nil {
		return 0, err
	}
	c := &tracedCampus{id: id, edge: es, headset: make(map[protocol.ParticipantID]*sensors.Headset)}
	c.array = sensors.NewArray(t.cfg.RoomSensorCount, 12, 10, t.sim, sensors.RoomSensorConfig{}, func(o sensors.Observation) {
		// SensorID is "camN/<participant>".
		for i := len(o.SensorID) - 1; i >= 0; i-- {
			if o.SensorID[i] == '/' {
				n, err := strconv.ParseUint(o.SensorID[i+1:], 10, 32)
				if err != nil {
					return
				}
				_ = es.IngestObservation(protocol.ParticipantID(n), o)
				return
			}
		}
	})
	t.campuses = append(t.campuses, c)
	return len(t.campuses) - 1, nil
}

func (t *tracedTopo) ConnectCampuses(a, b int) error {
	ea, eb := t.campuses[a].edge, t.campuses[b].edge
	if err := t.net.ConnectBoth(netsim.Addr(ea.Addr()), netsim.Addr(eb.Addr()), netsim.InterCampus()); err != nil {
		return err
	}
	if err := ea.ConnectPeer(eb.Addr()); err != nil {
		return err
	}
	return eb.ConnectPeer(ea.Addr())
}

func (t *tracedTopo) AddLocal(campus int, name string, educator bool, s trace.MotionScript) (protocol.ParticipantID, error) {
	c := t.campuses[campus]
	id := t.allocID()
	role := protocol.RoleLearner
	if educator {
		role = protocol.RoleEducator
	}
	vacant := c.edge.Seats().VacantIndices()
	if len(vacant) == 0 {
		return 0, fmt.Errorf("campus %d is full", c.id)
	}
	av := avatar.Avatar{Participant: id, Name: name, Role: role, Preferred: avatar.LoDHigh}
	if err := c.edge.RegisterLocal(av, vacant[0]); err != nil {
		return 0, err
	}
	hs := sensors.NewHeadset(strconv.FormatUint(uint64(id), 10), t.sim, s,
		sensors.HeadsetConfig{RateHz: t.cfg.HeadsetHz},
		func(o sensors.Observation) { _ = c.edge.IngestObservation(id, o) })
	hs.SetExpressionSource(
		func(time.Duration) expression.Expression { return expression.PresetNeutral.Make() },
		func(_ time.Duration, e expression.Expression) { _ = c.edge.IngestExpression(id, e) },
	)
	c.headset[id] = hs
	c.array.Track(strconv.FormatUint(uint64(id), 10), s)
	if t.started {
		hs.Start()
	}
	if educator {
		t.cloud.PinFocus(id)
	}
	return id, nil
}

func (t *tracedTopo) AddRelay(name string, link netsim.LinkConfig) (*cloud.Relay, error) {
	addr := netsim.Addr("relay-" + name)
	r, err := cloud.NewRelay(t.sim, newTracedTransport(t.net.Endpoint(addr), t.tr, rowRecvRelay), cloud.RelayConfig{
		Upstream: t.cloud.Addr(), TickHz: t.cfg.TickHz, InterpDelay: t.cfg.InterpDelay,
		Interest: t.interest, Parallelism: t.cfg.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	if err := t.net.ConnectBoth(addr, netsim.Addr(t.cloud.Addr()), link); err != nil {
		return nil, err
	}
	if err := t.cloud.AddRelay(endpoint.Addr(addr)); err != nil {
		return nil, err
	}
	t.relays = append(t.relays, r)
	return r, nil
}

func (t *tracedTopo) AddRemote(name string, s trace.MotionScript, link netsim.LinkConfig, via *cloud.Relay) (*client.VR, protocol.ParticipantID, error) {
	t.tr.begin(rowJoin)
	defer t.tr.end()
	id := t.allocID()
	server := t.cloud.Addr()
	if via != nil {
		server = via.Addr()
	}
	addr := netsim.Addr("vr-" + strconv.FormatUint(uint64(id), 10))
	v, err := client.NewVR(t.sim, newTracedTransport(t.net.Endpoint(addr), t.tr, rowRecvVR), client.VRConfig{
		Participant: id, Server: server, InterpDelay: t.cfg.InterpDelay, Script: s,
	})
	if err != nil {
		return nil, 0, err
	}
	if err := t.net.ConnectBoth(addr, netsim.Addr(server), link); err != nil {
		return nil, 0, err
	}
	if via == nil {
		if err := t.cloud.AddClient(id, endpoint.Addr(addr)); err != nil {
			return nil, 0, err
		}
	} else {
		if err := t.cloud.RegisterRelayClient(id, server); err != nil {
			return nil, 0, err
		}
		if err := via.AddClient(id, endpoint.Addr(addr)); err != nil {
			return nil, 0, err
		}
		t.relayOf[id] = via
	}
	t.clients[id] = v
	if t.started {
		if err := v.Start(); err != nil {
			return nil, 0, err
		}
	}
	return v, id, nil
}

func (t *tracedTopo) RemoveRemote(id protocol.ParticipantID) error {
	t.tr.begin(rowLeave)
	defer t.tr.end()
	v, ok := t.clients[id]
	if !ok {
		return fmt.Errorf("unknown remote learner %d", id)
	}
	delete(t.clients, id)
	v.Stop()
	if r := t.relayOf[id]; r != nil {
		delete(t.relayOf, id)
		if err := r.RemoveClient(id); err != nil {
			return err
		}
	}
	if err := t.cloud.RemoveClient(id); err != nil {
		return err
	}
	return t.net.RemoveHost(netsim.Addr(v.Addr()))
}

// Migrate follows classroom.Deployment.MigrateRemoteLearner step for step.
func (t *tracedTopo) Migrate(id protocol.ParticipantID, relay *cloud.Relay, link netsim.LinkConfig) error {
	t.tr.begin(rowMigrate)
	defer t.tr.end()
	v, ok := t.clients[id]
	if !ok {
		return fmt.Errorf("unknown remote learner %d", id)
	}
	old := t.relayOf[id]
	if old == relay {
		return nil
	}
	oldAddr, newAddr := t.cloud.Addr(), t.cloud.Addr()
	if old != nil {
		oldAddr = old.Addr()
	}
	if relay != nil {
		newAddr = relay.Addr()
	}
	var b core.PeerBaseline
	var err error
	if old == nil {
		b, err = t.cloud.DemoteClient(id, newAddr)
	} else {
		b, err = old.ReleaseClient(id)
	}
	if err != nil {
		return err
	}
	addr := netsim.Addr(v.Addr())
	for _, dir := range [2][2]netsim.Addr{{addr, netsim.Addr(oldAddr)}, {netsim.Addr(oldAddr), addr}} {
		if err := t.net.Disconnect(dir[0], dir[1]); err != nil {
			return err
		}
	}
	if err := t.net.ConnectBoth(addr, netsim.Addr(newAddr), link); err != nil {
		return err
	}
	if relay == nil {
		if err := t.cloud.PromoteClient(id, endpoint.Addr(addr), b); err != nil {
			return err
		}
		delete(t.relayOf, id)
	} else {
		if err := relay.AdoptClient(id, endpoint.Addr(addr), b); err != nil {
			return err
		}
		if old != nil {
			if err := t.cloud.RetargetClient(id, newAddr); err != nil {
				return err
			}
		}
		t.relayOf[id] = relay
	}
	v.Retarget(newAddr)
	return nil
}

func (t *tracedTopo) edges() []*edge.Server {
	cs := slices.Clone(t.campuses)
	slices.SortFunc(cs, func(a, b *tracedCampus) int { return cmp.Compare(a.id, b.id) })
	out := make([]*edge.Server, len(cs))
	for i, c := range cs {
		out[i] = c.edge
	}
	return out
}

// Start follows classroom.Deployment.Start's order.
func (t *tracedTopo) Start() error {
	if t.started {
		return nil
	}
	t.started = true
	if err := t.cloud.Start(); err != nil {
		return err
	}
	cs := slices.Clone(t.campuses)
	slices.SortFunc(cs, func(a, b *tracedCampus) int { return cmp.Compare(a.id, b.id) })
	for _, c := range cs {
		if err := c.edge.Start(); err != nil {
			return err
		}
		c.array.Start()
		for _, pid := range sortedIDs(c.headset) {
			c.headset[pid].Start()
		}
	}
	for _, r := range relaysByName(t.relays) {
		if err := r.Start(); err != nil {
			return err
		}
	}
	for _, pid := range sortedIDs(t.clients) {
		if err := t.clients[pid].Start(); err != nil {
			return err
		}
	}
	return nil
}

func sortedIDs[V any](m map[protocol.ParticipantID]V) []protocol.ParticipantID {
	out := make([]protocol.ParticipantID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// Advance steps the clock one event at a time, each inside an event span.
// A sentinel at the horizon ends the loop; the Run that follows executes
// any events due exactly at the horizon that were queued behind the
// sentinel, so the events run are exactly those Sim.Run would run.
func (t *tracedTopo) Advance(dur time.Duration) error {
	until := t.sim.Now() + dur
	reached := false
	t.sim.At(until, func() { reached = true })
	for !reached {
		t.tr.beginEvent()
		ok := t.sim.Step()
		t.tr.end()
		if !ok {
			break
		}
	}
	t.tr.beginEvent()
	err := t.sim.Run(until)
	t.tr.end()
	return err
}

func (t *tracedTopo) stopAll() {
	for _, c := range t.campuses {
		c.edge.Stop()
		c.array.Stop()
		for _, hs := range c.headset {
			hs.Stop()
		}
	}
	for _, r := range t.relays {
		r.Stop()
	}
	for _, v := range t.clients {
		v.Stop()
	}
	t.cloud.Stop()
	t.started = false
}

func (t *tracedTopo) StopPublishers() error {
	t.stopAll()
	return restartServers(t.cloud, t.edges(), t.relays)
}

func (t *tracedTopo) Teardown() { t.stopAll() }
