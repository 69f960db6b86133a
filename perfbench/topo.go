package main

import (
	"cmp"
	"slices"
	"time"

	"metaclass/classroom"
	"metaclass/internal/client"
	"metaclass/internal/cloud"
	"metaclass/internal/edge"
	"metaclass/internal/netsim"
	"metaclass/internal/protocol"
	"metaclass/internal/trace"
	"metaclass/internal/vclock"
)

// topo is the deployment surface a workload script drives. deployTopo backs
// it with the public classroom.Deployment (the measured path); tracedTopo
// rebuilds the same topology from the node constructors on timing
// transports. Both must produce identical virtual-time results for a seed.
type topo interface {
	Sim() *vclock.Sim
	Net() *netsim.Network
	Cloud() *cloud.Server
	AddCampus(name string, id protocol.ClassroomID) (int, error)
	ConnectCampuses(a, b int) error
	AddLocal(campus int, name string, educator bool, s trace.MotionScript) (protocol.ParticipantID, error)
	AddRelay(name string, link netsim.LinkConfig) (*cloud.Relay, error)
	AddRemote(name string, s trace.MotionScript, link netsim.LinkConfig, via *cloud.Relay) (*client.VR, protocol.ParticipantID, error)
	RemoveRemote(id protocol.ParticipantID) error
	Migrate(id protocol.ParticipantID, via *cloud.Relay, link netsim.LinkConfig) error
	Start() error
	// Advance runs the simulation forward by dur of virtual time.
	Advance(dur time.Duration) error
	// StopPublishers halts every VR client, headset and sensor array while
	// the cloud, relays and edges keep ticking, so replicas can converge.
	StopPublishers() error
	// Teardown stops every node; in-flight frames drain on later Advance.
	Teardown()
}

// deployTopo is the classroom.Deployment-backed topo.
type deployTopo struct {
	d        *classroom.Deployment
	campuses []*classroom.Campus
	relays   []*cloud.Relay
}

func newDeployTopo(cfg classroom.Config) (*deployTopo, error) {
	d, err := classroom.NewDeployment(cfg)
	if err != nil {
		return nil, err
	}
	return &deployTopo{d: d}, nil
}

func (t *deployTopo) Sim() *vclock.Sim     { return t.d.Sim() }
func (t *deployTopo) Net() *netsim.Network { return t.d.Network() }
func (t *deployTopo) Cloud() *cloud.Server { return t.d.Cloud() }

func (t *deployTopo) AddCampus(name string, id protocol.ClassroomID) (int, error) {
	c, err := t.d.AddCampus(name, id)
	if err != nil {
		return 0, err
	}
	t.campuses = append(t.campuses, c)
	return len(t.campuses) - 1, nil
}

func (t *deployTopo) ConnectCampuses(a, b int) error {
	return t.d.ConnectCampuses(t.campuses[a], t.campuses[b])
}

func (t *deployTopo) AddLocal(campus int, name string, educator bool, s trace.MotionScript) (protocol.ParticipantID, error) {
	if educator {
		return t.campuses[campus].AddEducator(name, s)
	}
	return t.campuses[campus].AddLearner(name, s)
}

func (t *deployTopo) AddRelay(name string, link netsim.LinkConfig) (*cloud.Relay, error) {
	r, err := t.d.AddRelay(name, link)
	if err != nil {
		return nil, err
	}
	t.relays = append(t.relays, r)
	return r, nil
}

func (t *deployTopo) AddRemote(name string, s trace.MotionScript, link netsim.LinkConfig, via *cloud.Relay) (*client.VR, protocol.ParticipantID, error) {
	if via == nil {
		return t.d.AddRemoteLearner(name, s, link)
	}
	return t.d.AddRemoteLearnerVia(via, name, s, link)
}

func (t *deployTopo) RemoveRemote(id protocol.ParticipantID) error {
	return t.d.RemoveRemoteLearner(id)
}

func (t *deployTopo) Migrate(id protocol.ParticipantID, via *cloud.Relay, link netsim.LinkConfig) error {
	return t.d.MigrateRemoteLearner(id, via, link)
}

func (t *deployTopo) Start() error { return t.d.Start() }

// Advance steps the clock directly rather than through Deployment.Run,
// which would restart publishers that StopPublishers halted.
func (t *deployTopo) Advance(dur time.Duration) error {
	return t.d.Sim().Run(t.d.Now() + dur)
}

// StopPublishers stops the whole deployment (the only public switch for
// campus headsets and sensor arrays) and restarts the servers in the
// deployment's own start order.
func (t *deployTopo) StopPublishers() error {
	t.d.Stop()
	return restartServers(t.d.Cloud(), t.campusEdges(), t.relays)
}

func (t *deployTopo) campusEdges() []*edge.Server {
	cs := slices.Clone(t.campuses)
	slices.SortFunc(cs, func(a, b *classroom.Campus) int { return cmp.Compare(a.ID(), b.ID()) })
	out := make([]*edge.Server, len(cs))
	for i, c := range cs {
		out[i] = c.Edge()
	}
	return out
}

func (t *deployTopo) Teardown() { t.d.Stop() }

// restartServers restarts the cloud, then the edges in classroom-ID order,
// then the relays in name order — classroom.Deployment.Start's order.
func restartServers(c *cloud.Server, edges []*edge.Server, relays []*cloud.Relay) error {
	if err := c.Start(); err != nil {
		return err
	}
	for _, e := range edges {
		if err := e.Start(); err != nil {
			return err
		}
	}
	for _, r := range relaysByName(relays) {
		if err := r.Start(); err != nil {
			return err
		}
	}
	return nil
}

// relaysByName orders relays by address, which is "relay-<name>" for
// every relay a topo creates, so address order is name order.
func relaysByName(relays []*cloud.Relay) []*cloud.Relay {
	out := slices.Clone(relays)
	slices.SortFunc(out, func(a, b *cloud.Relay) int { return cmp.Compare(a.Addr(), b.Addr()) })
	return out
}
