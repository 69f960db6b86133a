package interest

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"metaclass/internal/mathx"
	"metaclass/internal/protocol"
)

func TestGridUpdateQuery(t *testing.T) {
	g := NewGrid(4)
	g.Update(1, mathx.V3(0, 0, 0))
	g.Update(2, mathx.V3(3, 0, 0))
	g.Update(3, mathx.V3(50, 0, 0))
	got := g.QueryRadius(mathx.V3(0, 0, 0), 5)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("QueryRadius = %v, want [1 2]", got)
	}
	if g.Len() != 3 {
		t.Errorf("Len = %d", g.Len())
	}
}

func TestGridIgnoresHeight(t *testing.T) {
	g := NewGrid(4)
	g.Update(1, mathx.V3(0, 100, 0)) // height must not affect 2D interest
	got := g.QueryRadius(mathx.V3(0, 0, 0), 1)
	if len(got) != 1 {
		t.Errorf("height affected query: %v", got)
	}
}

func TestGridMoveAcrossCells(t *testing.T) {
	g := NewGrid(2)
	g.Update(1, mathx.V3(0, 0, 0))
	g.Update(1, mathx.V3(100, 0, 100))
	if got := g.QueryRadius(mathx.V3(0, 0, 0), 5); len(got) != 0 {
		t.Errorf("stale cell entry: %v", got)
	}
	if got := g.QueryRadius(mathx.V3(100, 0, 100), 1); len(got) != 1 {
		t.Errorf("moved entity missing: %v", got)
	}
	// Move within the same cell.
	g.Update(1, mathx.V3(100.5, 0, 100.5))
	if got := g.QueryRadius(mathx.V3(100.5, 0, 100.5), 1); len(got) != 1 {
		t.Errorf("same-cell move lost entity: %v", got)
	}
}

func TestGridRemove(t *testing.T) {
	g := NewGrid(4)
	g.Update(1, mathx.V3(1, 0, 1))
	g.Remove(1)
	g.Remove(1) // double remove is a no-op
	if g.Len() != 0 {
		t.Errorf("Len after remove = %d", g.Len())
	}
	if _, ok := g.Position(1); ok {
		t.Error("removed entity still has position")
	}
	if got := g.QueryRadius(mathx.V3(1, 0, 1), 5); len(got) != 0 {
		t.Errorf("removed entity in query: %v", got)
	}
}

// TestGridConcurrentNeighborsAfterBoundaryRemove pins that queries only
// read: removing the entity in a boundary cell shrinks the occupied box,
// and parallel interest refreshes then query the grid from several
// goroutines at once. Run it under -race.
func TestGridConcurrentNeighborsAfterBoundaryRemove(t *testing.T) {
	g := NewGrid(4)
	var want []protocol.ParticipantID
	for i := 0; i < 16; i++ {
		id := protocol.ParticipantID(i + 1)
		g.Update(id, mathx.V3(float64(i%4)*4+1, 0, float64(i/4)*4+1))
		want = append(want, id)
	}
	g.Update(99, mathx.V3(41, 0, 41)) // alone in the far corner cell
	g.Remove(99)
	// No query between the remove and the concurrent ones: the first
	// queries see the box exactly as the remove left it.
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []protocol.ParticipantID
			for i := 0; i < 100; i++ {
				buf = g.Neighbors(mathx.V3(6, 0, 6), 100, buf[:0])
				if !slices.Equal(buf, want) {
					t.Errorf("concurrent Neighbors = %v, want %v", buf, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestGridQueryMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := NewGrid(3)
	type ent struct {
		id protocol.ParticipantID
		p  mathx.Vec3
	}
	var ents []ent
	for i := 0; i < 500; i++ {
		e := ent{protocol.ParticipantID(i), mathx.V3(rng.Float64()*100-50, 0, rng.Float64()*100-50)}
		ents = append(ents, e)
		g.Update(e.id, e.p)
	}
	for trial := 0; trial < 50; trial++ {
		center := mathx.V3(rng.Float64()*100-50, 0, rng.Float64()*100-50)
		radius := rng.Float64() * 30
		got := g.QueryRadius(center, radius)
		want := map[protocol.ParticipantID]bool{}
		for _, e := range ents {
			dx, dz := e.p.X-center.X, e.p.Z-center.Z
			if dx*dx+dz*dz <= radius*radius {
				want[e.id] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d, want %d", trial, len(got), len(want))
		}
		for _, id := range got {
			if !want[id] {
				t.Fatalf("trial %d: unexpected id %d", trial, id)
			}
		}
	}
}

func TestGridNegativeRadius(t *testing.T) {
	g := NewGrid(4)
	g.Update(1, mathx.Vec3{})
	if got := g.QueryRadius(mathx.Vec3{}, -1); got != nil {
		t.Errorf("negative radius = %v", got)
	}
}

func TestTierRates(t *testing.T) {
	tiers := []Tier{TierFocus, TierNear, TierFar, TierAmbient}
	var prev uint64
	for _, tier := range tiers {
		d := tier.RateDivisor()
		if d <= prev {
			t.Errorf("divisor not increasing at %v", tier)
		}
		prev = d
		if tier.String() == "" {
			t.Errorf("tier %d unnamed", tier)
		}
	}
	if TierCulled.RateDivisor() != 0 {
		t.Error("culled should never send")
	}
	for tick := uint64(0); tick < 100; tick++ {
		for id := protocol.ParticipantID(0); id < 5; id++ {
			if ShouldSend(TierCulled, id, tick) {
				t.Fatal("culled sent")
			}
			if !ShouldSend(TierFocus, id, tick) {
				t.Fatal("focus skipped a tick")
			}
		}
	}
}

func TestShouldSendPhaseStagger(t *testing.T) {
	// Each source sends exactly once per divisor window, on the tick selected
	// by its deterministic phase — and the phases spread across the window
	// instead of bursting together on tick%d == 0.
	for _, tier := range []Tier{TierNear, TierFar, TierAmbient} {
		d := tier.RateDivisor()
		buckets := make([]int, d)
		for id := protocol.ParticipantID(0); id < 256; id++ {
			sent := 0
			var sentAt uint64
			for tick := uint64(0); tick < d; tick++ {
				if ShouldSend(tier, id, tick) {
					sent++
					sentAt = tick
				}
			}
			if sent != 1 {
				t.Fatalf("%v source %d sent %d times in one window, want 1", tier, id, sent)
			}
			if sentAt != Phase(id)%d {
				t.Fatalf("%v source %d sent at tick %d, want phase %d", tier, id, sentAt, Phase(id)%d)
			}
			buckets[sentAt]++
		}
		for phase, n := range buckets {
			if n == 0 {
				t.Errorf("%v: no source out of 256 landed on phase %d — hash not spreading", tier, phase)
			}
		}
	}
	if Phase(7) != Phase(7) {
		t.Error("Phase not deterministic")
	}
}

func TestPolicyClassify(t *testing.T) {
	p := NewPolicy()
	tests := []struct {
		d    float64
		want Tier
	}{
		{1, TierFocus}, {5, TierNear}, {15, TierFar}, {40, TierAmbient}, {100, TierCulled},
	}
	for _, tt := range tests {
		if got := p.Classify(1, tt.d); got != tt.want {
			t.Errorf("Classify(d=%v) = %v, want %v", tt.d, got, tt.want)
		}
	}
}

func TestPolicyPinOverridesDistance(t *testing.T) {
	p := NewPolicy()
	p.Pin(42)
	if got := p.Classify(42, 1000); got != TierFocus {
		t.Errorf("pinned source = %v, want focus", got)
	}
	p.Unpin(42)
	if got := p.Classify(42, 1000); got != TierCulled {
		t.Errorf("unpinned source = %v, want culled", got)
	}
}

func TestPlanExcludesReceiverAndCulled(t *testing.T) {
	g := NewGrid(4)
	p := NewPolicy()
	g.Update(1, mathx.V3(0, 0, 0))   // receiver
	g.Update(2, mathx.V3(1, 0, 0))   // focus
	g.Update(3, mathx.V3(500, 0, 0)) // culled
	got := Plan(g, p, 1, mathx.V3(0, 0, 0), 0)
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("Plan = %v, want [2]", got)
	}
}

func TestPlanDecimatesByTier(t *testing.T) {
	g := NewGrid(4)
	p := NewPolicy()
	g.Update(2, mathx.V3(1, 0, 0))  // focus: every tick
	g.Update(3, mathx.V3(6, 0, 0))  // near: every 2nd
	g.Update(4, mathx.V3(15, 0, 0)) // far: every 4th
	g.Update(5, mathx.V3(30, 0, 0)) // ambient: every 8th
	counts := map[protocol.ParticipantID]int{}
	for tick := uint64(0); tick < 64; tick++ {
		for _, id := range Plan(g, p, 1, mathx.V3(0, 0, 0), tick) {
			counts[id]++
		}
	}
	want := map[protocol.ParticipantID]int{2: 64, 3: 32, 4: 16, 5: 8}
	for id, w := range want {
		if counts[id] != w {
			t.Errorf("source %d sent %d times, want %d", id, counts[id], w)
		}
	}
}

func TestPlanIncludesDistantPinned(t *testing.T) {
	g := NewGrid(4)
	p := NewPolicy()
	g.Update(9, mathx.V3(1000, 0, 0)) // the lecturer, far outside cull radius
	p.Pin(9)
	got := Plan(g, p, 1, mathx.V3(0, 0, 0), 3)
	if len(got) != 1 || got[0] != 9 {
		t.Errorf("Plan = %v, want pinned [9]", got)
	}
}

func TestPlanFanOutReduction(t *testing.T) {
	// The point of interest management: with 1000 spread-out users, the
	// per-receiver plan must be a small fraction of the population.
	rng := rand.New(rand.NewSource(23))
	g := NewGrid(8)
	p := NewPolicy()
	for i := 0; i < 1000; i++ {
		g.Update(protocol.ParticipantID(i), mathx.V3(rng.Float64()*400-200, 0, rng.Float64()*400-200))
	}
	recvPos, _ := g.Position(0)
	total := 0
	for tick := uint64(0); tick < 8; tick++ {
		total += len(Plan(g, p, 0, recvPos, tick))
	}
	avg := float64(total) / 8
	if avg > 100 {
		t.Errorf("average plan size %v of 1000, want strong reduction", avg)
	}
}

func BenchmarkPlan1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := NewGrid(8)
	p := NewPolicy()
	for i := 0; i < 1000; i++ {
		g.Update(protocol.ParticipantID(i), mathx.V3(rng.Float64()*400-200, 0, rng.Float64()*400-200))
	}
	pos, _ := g.Position(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Plan(g, p, 0, pos, uint64(i))
	}
}

func TestClassifySqMatchesClassify(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := NewPolicy()
	p.Pin(42)
	for i := 0; i < 5000; i++ {
		id := protocol.ParticipantID(rng.Intn(100))
		d := rng.Float64() * 80
		if got, want := p.ClassifySq(id, d*d), p.Classify(id, d); got != want {
			t.Fatalf("ClassifySq(%d, %v²) = %v, Classify = %v", id, d, got, want)
		}
	}
	// Exact tier boundaries.
	for _, d := range []float64{0, 3, 8, 20, 60, 60.0001} {
		if got, want := p.ClassifySq(1, d*d), p.Classify(1, d); got != want {
			t.Fatalf("boundary %v: ClassifySq = %v, Classify = %v", d, got, want)
		}
	}
	// Random radii, including distances engineered to sit on the boundary:
	// d <= r and d*d <= r*r can round differently in float64, so Classify
	// must delegate to ClassifySq rather than reimplement the comparison.
	rng = rand.New(rand.NewSource(12))
	for i := 0; i < 20000; i++ {
		q := &Policy{Pinned: map[protocol.ParticipantID]bool{}}
		q.FocusRadius = rng.Float64() * 10
		q.NearRadius = q.FocusRadius + rng.Float64()*10
		q.FarRadius = q.NearRadius + rng.Float64()*20
		q.CullRadius = q.FarRadius + rng.Float64()*50
		var d float64
		switch rng.Intn(3) {
		case 0:
			d = rng.Float64() * q.CullRadius * 1.2
		case 1: // exactly on a boundary
			d = [4]float64{q.FocusRadius, q.NearRadius, q.FarRadius, q.CullRadius}[rng.Intn(4)]
		case 2: // one ulp around a boundary
			b := [4]float64{q.FocusRadius, q.NearRadius, q.FarRadius, q.CullRadius}[rng.Intn(4)]
			d = math.Nextafter(b, b+float64(rng.Intn(3)-1))
		}
		if got, want := q.ClassifySq(1, d*d), q.Classify(1, d); got != want {
			t.Fatalf("policy %+v d=%v: ClassifySq = %v, Classify = %v", q, d, got, want)
		}
	}
}

func TestRefreshExcludesReceiver(t *testing.T) {
	g := NewGrid(4)
	p := NewPolicy()
	g.Update(1, mathx.V3(0, 0, 0)) // receiver
	g.Update(2, mathx.V3(1, 0, 0)) // focus neighbor
	s := NewSet()
	s.RefreshOwned(g, p, 1, 1)
	if s.Allows(g, 1) {
		t.Error("receiver admitted into its own allowed set")
	}
	if !s.Allows(g, 2) {
		t.Error("focus neighbor not admitted")
	}

	// A pinned receiver must still never receive itself: the pinned loop
	// would otherwise re-add it regardless of the neighbors fix.
	p.Pin(1)
	s2 := NewSet()
	s2.RefreshOwned(g, p, 1, 2)
	if s2.Allows(g, 1) {
		t.Error("pinned receiver admitted into its own allowed set")
	}
	if !s2.Allows(g, 2) {
		t.Error("neighbor lost after pinning the receiver")
	}

	// Allows(g, recv) == false holds even in admit-everything mode (receiver
	// not yet indexed in the grid).
	s3 := NewSet()
	s3.RefreshOwned(g, p, 99, 1)
	if s3.Allows(g, 99) {
		t.Error("unindexed receiver admitted by allow-all mode")
	}
	if !s3.Allows(g, 2) {
		t.Error("allow-all mode rejected another source")
	}
}

// TestPlanSetPinChurnAgreement drives Plan and Set.Refresh through the same
// pin/unpin churn and random motion, asserting the two admission paths never
// drift: for every indexed source, Set.Allows must equal membership in Plan's
// output.
func TestPlanSetPinChurnAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := NewGrid(4)
	p := NewPolicy()
	const n = 60
	for i := 0; i < n; i++ {
		g.Update(protocol.ParticipantID(i), mathx.V3(rng.Float64()*160-80, 0, rng.Float64()*160-80))
	}
	recv := protocol.ParticipantID(0)
	s := NewSet()
	for tick := uint64(1); tick <= 200; tick++ {
		// Churn pins (sometimes pinning the receiver itself) and positions.
		for j := 0; j < 3; j++ {
			id := protocol.ParticipantID(rng.Intn(n))
			if rng.Intn(2) == 0 {
				p.Pin(id)
			} else {
				p.Unpin(id)
			}
		}
		id := protocol.ParticipantID(rng.Intn(n))
		g.Update(id, mathx.V3(rng.Float64()*160-80, 0, rng.Float64()*160-80))

		recvPos, _ := g.Position(recv)
		plan := Plan(g, p, recv, recvPos, tick)
		inPlan := make(map[protocol.ParticipantID]bool, len(plan))
		for _, id := range plan {
			inPlan[id] = true
		}
		s.RefreshOwned(g, p, recv, tick)
		for i := 0; i < n; i++ {
			id := protocol.ParticipantID(i)
			if got, want := s.Allows(g, id), inPlan[id]; got != want {
				t.Fatalf("tick %d source %d: Set.Allows = %v, Plan membership = %v (pinned=%v)",
					tick, id, got, want, p.Pinned[id])
			}
		}
	}
}

func TestNeighborsMatchesQueryRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := NewGrid(4)
	for i := 0; i < 500; i++ {
		g.Update(protocol.ParticipantID(i), mathx.V3(rng.Float64()*100-50, 0, rng.Float64()*100-50))
	}
	var buf []protocol.ParticipantID
	for trial := 0; trial < 50; trial++ {
		center := mathx.V3(rng.Float64()*100-50, 0, rng.Float64()*100-50)
		radius := rng.Float64() * 30
		want := g.QueryRadius(center, radius)
		buf = g.Neighbors(center, radius, buf[:0])
		if len(want) != len(buf) {
			t.Fatalf("trial %d: Neighbors found %d, QueryRadius %d", trial, len(buf), len(want))
		}
		for i := range want {
			if want[i] != buf[i] {
				t.Fatalf("trial %d: order diverged at %d: %v vs %v", trial, i, buf[i], want[i])
			}
		}
	}
	// A reused buffer with leftover capacity must not leak stale IDs.
	buf = g.Neighbors(mathx.V3(1000, 0, 1000), 1, buf[:0])
	if len(buf) != 0 {
		t.Errorf("query far away returned %v", buf)
	}
}

func BenchmarkNeighbors1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := NewGrid(8)
	for i := 0; i < 1000; i++ {
		g.Update(protocol.ParticipantID(i), mathx.V3(rng.Float64()*400-200, 0, rng.Float64()*400-200))
	}
	pos, _ := g.Position(0)
	var buf []protocol.ParticipantID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.Neighbors(pos, 60, buf[:0])
	}
}

// refAllows is the two-pass admission Set.Refresh replaced, kept as an
// oracle: a sorted QueryRadius over the cull radius, ClassifySq and
// ShouldSend per neighbor at its indexed position, then the pin loop. It
// answers like Set.Allows.
func refAllows(g *Grid, p *Policy, recv protocol.ParticipantID, tick uint64) func(protocol.ParticipantID) bool {
	recvPos, placed := g.Position(recv)
	allowed := make(map[protocol.ParticipantID]bool)
	if placed {
		for _, id := range g.QueryRadius(recvPos, p.CullRadius) {
			if id == recv {
				continue
			}
			pos, _ := g.Position(id)
			dx, dz := pos.X-recvPos.X, pos.Z-recvPos.Z
			if ShouldSend(p.ClassifySq(id, dx*dx+dz*dz), id, tick) {
				allowed[id] = true
			}
		}
		for id := range p.Pinned {
			if _, indexed := g.Position(id); indexed && id != recv {
				allowed[id] = true
			}
		}
	}
	return func(id protocol.ParticipantID) bool {
		if id == recv {
			return false
		}
		if _, indexed := g.Position(id); !placed || !indexed {
			return true
		}
		return allowed[id]
	}
}

// TestRefreshMatchesNeighborsClassification checks the one-pass Refresh
// against refAllows over random grids under moves inside and across cells,
// removals and re-inserts, pins inside and beyond the cull radius, a pinned
// receiver, an unindexed receiver (admit-all), and sources exactly on a tier
// or cull boundary.
func TestRefreshMatchesNeighborsClassification(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := NewGrid(4)
		p := NewPolicy()
		p.CullRadius = float64(20 + rng.Intn(30))
		const n = 120
		span := 2 * (p.CullRadius + 20) // some sources lie beyond the cull radius
		place := func() mathx.Vec3 {
			return mathx.V3(rng.Float64()*span-span/2, rng.Float64(), rng.Float64()*span-span/2)
		}
		for i := 0; i < n; i++ {
			g.Update(protocol.ParticipantID(i), place())
		}
		sets := map[protocol.ParticipantID]*Set{}
		for tick := uint64(1); tick <= 60; tick++ {
			for k := 0; k < 20; k++ {
				id := protocol.ParticipantID(rng.Intn(n))
				switch r := rng.Intn(10); {
				case r < 5: // jitter: mostly a move inside the cell
					if pos, ok := g.Position(id); ok {
						g.Update(id, pos.Add(mathx.V3(rng.Float64()*0.4-0.2, 0, rng.Float64()*0.4-0.2)))
					} else {
						g.Update(id, place())
					}
				case r < 8: // a jump, usually to another cell
					g.Update(id, place())
				default:
					g.Remove(id)
				}
			}
			// Receiver 0 on whole-meter coordinates and sources 3..6 exactly
			// on the focus, near, far and cull radii from it: the distances
			// are exact in float64, so each sits on its boundary.
			x0, z0 := float64(rng.Intn(40)-20), float64(rng.Intn(40)-20)
			g.Update(0, mathx.V3(x0, 0, z0))
			for k, r := range []float64{p.FocusRadius, p.NearRadius, p.FarRadius, p.CullRadius} {
				g.Update(protocol.ParticipantID(3+k), mathx.V3(x0+r, 0, z0))
			}
			if rng.Intn(3) == 0 {
				if id := protocol.ParticipantID(rng.Intn(n)); rng.Intn(2) == 0 {
					p.Pin(id)
				} else {
					p.Unpin(id)
				}
			}
			// Receivers: placed ones, a pinned one, and one never indexed.
			recvs := []protocol.ParticipantID{0, 1, 2, n + 1}
			p.Pin(1)
			for _, recv := range recvs {
				s := sets[recv]
				if s == nil {
					s = NewSet()
					sets[recv] = s
				}
				s.RefreshOwned(g, p, recv, tick)
				want := refAllows(g, p, recv, tick)
				for id := protocol.ParticipantID(0); id <= n+2; id++ {
					if got := s.Allows(g, id); got != want(id) {
						t.Fatalf("seed %d tick %d recv %d source %d: Allows = %v, reference %v (pinned=%v)",
							seed, tick, recv, id, got, want(id), p.Pinned[id])
					}
				}
			}
		}
	}
}

// TestGridSameCellMoveUpdatesQueries moves an entity inside its cell across
// a query radius and a tier boundary: queries and Refresh read positions
// from the cell, so a stale cell entry would answer from the old spot.
func TestGridSameCellMoveUpdatesQueries(t *testing.T) {
	g := NewGrid(4)
	p := NewPolicy() // focus 3 m, near 8 m
	const recv, src = protocol.ParticipantID(1), protocol.ParticipantID(2)
	g.Update(recv, mathx.V3(0.1, 0, 0.1))
	g.Update(src, mathx.V3(3.9, 0, 0.1)) // near tier, cell (0,0)
	// A tick on which the near tier (divisor 2) does not send src.
	tick := uint64(1)
	if ShouldSend(TierNear, src, tick) {
		tick = 2
	}
	if got := g.QueryRadius(mathx.Vec3{}, 3); len(got) != 1 || got[0] != recv {
		t.Fatalf("QueryRadius before move = %v, want [1]", got)
	}
	s := NewSet()
	s.RefreshOwned(g, p, recv, tick)
	if s.Allows(g, src) {
		t.Fatal("near-tier source admitted on its off tick")
	}

	g.Update(src, mathx.V3(2.5, 0, 0.1)) // same cell, now focus tier and in radius
	if got := g.QueryRadius(mathx.Vec3{}, 3); len(got) != 2 || got[1] != src {
		t.Errorf("QueryRadius after same-cell move in = %v, want [1 2]", got)
	}
	s.RefreshOwned(g, p, recv, tick+2)
	if !s.Allows(g, src) {
		t.Error("focus-tier source rejected after a same-cell move")
	}

	g.Update(src, mathx.V3(3.9, 0, 0.1)) // and back out
	if got := g.QueryRadius(mathx.Vec3{}, 3); len(got) != 1 {
		t.Errorf("QueryRadius after same-cell move out = %v, want [1]", got)
	}
	s.RefreshOwned(g, p, recv, tick+4)
	if s.Allows(g, src) {
		t.Error("near-tier source admitted on its off tick after moving back")
	}
	if pos, _ := g.Position(src); pos.X != 3.9 {
		t.Errorf("Position = %v, want X 3.9", pos)
	}
}
