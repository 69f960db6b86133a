package pose

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"metaclass/internal/mathx"
)

func sampleAt(t time.Duration, x float64) Pose {
	return Pose{Time: t, Position: mathx.V3(x, 0, 0), Rotation: mathx.QuatIdentity(),
		Velocity: mathx.V3(1, 0, 0)}
}

func TestInterpBufferEmpty(t *testing.T) {
	b := NewInterpBuffer(50*time.Millisecond, 16, nil)
	if _, ok := b.Sample(time.Second); ok {
		t.Error("empty buffer returned a sample")
	}
	if _, ok := b.Newest(); ok {
		t.Error("empty buffer has newest")
	}
}

func TestInterpBufferInterpolates(t *testing.T) {
	b := NewInterpBuffer(100*time.Millisecond, 16, nil)
	b.Push(sampleAt(0, 0))
	b.Push(sampleAt(100*time.Millisecond, 1))
	b.Push(sampleAt(200*time.Millisecond, 2))
	// Display at t=250ms renders target t=150ms: between samples 1 and 2.
	got, ok := b.Sample(250 * time.Millisecond)
	if !ok {
		t.Fatal("no sample")
	}
	if !got.Position.NearEq(mathx.V3(1.5, 0, 0), 1e-9) {
		t.Errorf("interpolated = %v, want x=1.5", got.Position)
	}
	interp, extrap := b.Stats()
	if interp != 1 || extrap != 0 {
		t.Errorf("stats = %d/%d, want 1/0", interp, extrap)
	}
}

func TestInterpBufferExtrapolatesWhenDry(t *testing.T) {
	b := NewInterpBuffer(50*time.Millisecond, 16, Linear{})
	b.Push(sampleAt(0, 0)) // velocity 1 m/s
	// Display at 250ms renders target 200ms, beyond the only sample.
	got, ok := b.Sample(250 * time.Millisecond)
	if !ok {
		t.Fatal("no sample")
	}
	if !got.Position.NearEq(mathx.V3(0.2, 0, 0), 1e-9) {
		t.Errorf("extrapolated = %v, want x=0.2", got.Position)
	}
	_, extrap := b.Stats()
	if extrap != 1 {
		t.Errorf("extrapolations = %d, want 1", extrap)
	}
}

func TestInterpBufferBeforeOldest(t *testing.T) {
	b := NewInterpBuffer(0, 16, nil)
	b.Push(sampleAt(time.Second, 5))
	got, ok := b.Sample(500 * time.Millisecond)
	if !ok || !got.Position.NearEq(mathx.V3(5, 0, 0), 1e-9) {
		t.Errorf("pre-history sample = %v ok=%v", got.Position, ok)
	}
}

func TestInterpBufferOutOfOrderInsert(t *testing.T) {
	b := NewInterpBuffer(100*time.Millisecond, 16, nil)
	b.Push(sampleAt(0, 0))
	b.Push(sampleAt(200*time.Millisecond, 2))
	b.Push(sampleAt(100*time.Millisecond, 1))  // late arrival
	got, _ := b.Sample(250 * time.Millisecond) // target 150ms
	if !got.Position.NearEq(mathx.V3(1.5, 0, 0), 1e-9) {
		t.Errorf("with reordered insert = %v, want x=1.5", got.Position)
	}
}

func TestInterpBufferDuplicateTimestampReplaces(t *testing.T) {
	b := NewInterpBuffer(0, 16, nil)
	b.Push(sampleAt(time.Second, 1))
	b.Push(sampleAt(time.Second, 9))
	if b.Len() != 1 {
		t.Fatalf("len = %d, want 1", b.Len())
	}
	got, _ := b.Newest()
	if got.Position.X != 9 {
		t.Errorf("duplicate did not replace: x=%v", got.Position.X)
	}
}

func TestInterpBufferCapacityEviction(t *testing.T) {
	b := NewInterpBuffer(0, 4, nil)
	for i := 0; i < 10; i++ {
		b.Push(sampleAt(time.Duration(i)*time.Millisecond, float64(i)))
	}
	if b.Len() != 4 {
		t.Fatalf("len = %d, want 4", b.Len())
	}
	// Oldest retained sample is i=6.
	got, _ := b.Sample(6 * time.Millisecond) // delay 0, exact timestamp
	if got.Position.X != 6 {
		t.Errorf("oldest retained x = %v, want 6", got.Position.X)
	}
}

func TestInterpBufferPrune(t *testing.T) {
	b := NewInterpBuffer(0, 16, nil)
	for i := 0; i < 5; i++ {
		b.Push(sampleAt(time.Duration(i)*time.Second, float64(i)))
	}
	b.PruneBefore(3 * time.Second)
	if b.Len() != 2 {
		t.Errorf("len after prune = %d, want 2", b.Len())
	}
	b.PruneBefore(100 * time.Second)
	if b.Len() != 0 {
		t.Errorf("len after full prune = %d, want 0", b.Len())
	}
}

// contents lists the buffered samples, oldest first.
func contents(b *InterpBuffer) []Pose {
	out := make([]Pose, b.Len())
	for i := range out {
		out[i] = *b.at(i)
	}
	return out
}

func TestInterpBufferOrderInvariant(t *testing.T) {
	// Property: no matter the push order, samples end up time-sorted.
	f := func(offsets []uint16) bool {
		b := NewInterpBuffer(0, 256, nil)
		for _, o := range offsets {
			b.Push(sampleAt(time.Duration(o)*time.Millisecond, float64(o)))
		}
		s := contents(b)
		for i := 1; i < len(s); i++ {
			if s[i-1].Time >= s[i].Time {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInterpBufferDefaults(t *testing.T) {
	b := NewInterpBuffer(0, 0, nil)
	for i := 0; i < 100; i++ {
		b.Push(sampleAt(time.Duration(i)*time.Millisecond, float64(i)))
	}
	if b.Len() != 64 {
		t.Errorf("len after 100 pushes = %d, want the default capacity 64", b.Len())
	}
	if _, ok := b.Sample(time.Second); !ok {
		t.Error("default extrapolator missing")
	}
}

func TestInterpBufferPushIntoFullRingAllocatesNothing(t *testing.T) {
	b := NewInterpBuffer(0, 64, nil)
	var i int
	push := func() {
		b.Push(sampleAt(time.Duration(i)*time.Millisecond, float64(i)))
		i++
	}
	for range 64 {
		push()
	}
	if allocs := testing.AllocsPerRun(1000, push); allocs != 0 {
		t.Errorf("Push into a full ring = %v allocs, want 0", allocs)
	}
}

// sliceBuffer is the reference playout buffer: the ordered-slice form the
// ring replaced, which appends, inserts by copying up and evicts by copying
// the whole slice down. TestInterpBufferMatchesSliceReference holds the
// ring to its observable behaviour.
type sliceBuffer struct {
	samples []Pose
	cap     int
	delay   time.Duration
	extrap  Extrapolator

	interpolated, extrapolated uint64
}

func (b *sliceBuffer) Push(p Pose) {
	n := len(b.samples)
	if n == 0 || p.Time > b.samples[n-1].Time {
		b.samples = append(b.samples, p)
	} else {
		i := n - 1
		for i >= 0 && b.samples[i].Time > p.Time {
			i--
		}
		if i >= 0 && b.samples[i].Time == p.Time {
			b.samples[i] = p
			return
		}
		b.samples = append(b.samples, Pose{})
		copy(b.samples[i+2:], b.samples[i+1:])
		b.samples[i+1] = p
	}
	if len(b.samples) > b.cap {
		copy(b.samples, b.samples[len(b.samples)-b.cap:])
		b.samples = b.samples[:b.cap]
	}
}

func (b *sliceBuffer) Newest() (Pose, bool) {
	if len(b.samples) == 0 {
		return Pose{}, false
	}
	return b.samples[len(b.samples)-1], true
}

func (b *sliceBuffer) Sample(now time.Duration) (Pose, bool) {
	n := len(b.samples)
	if n == 0 {
		return Pose{}, false
	}
	target := now - b.delay
	newest := b.samples[n-1]
	if target >= newest.Time {
		b.extrapolated++
		return b.extrap.Predict(newest, target).At(now), true
	}
	if target <= b.samples[0].Time {
		return b.samples[0].At(now), true
	}
	lo, hi := 0, n-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if b.samples[mid].Time <= target {
			lo = mid
		} else {
			hi = mid
		}
	}
	a, c := b.samples[lo], b.samples[hi]
	span := c.Time - a.Time
	t := 0.0
	if span > 0 {
		t = float64(target-a.Time) / float64(span)
	}
	b.interpolated++
	return LerpPose(a, c, t).At(now), true
}

func (b *sliceBuffer) PruneBefore(t time.Duration) {
	i := 0
	for i < len(b.samples) && b.samples[i].Time < t {
		i++
	}
	copy(b.samples, b.samples[i:])
	b.samples = b.samples[:len(b.samples)-i]
}

func (b *sliceBuffer) Reset() {
	b.samples = b.samples[:0]
	b.interpolated, b.extrapolated = 0, 0
}

// TestInterpBufferMatchesSliceReference drives the ring and the slice
// reference with the same random traces — in-order, out-of-order and
// duplicate stamps, samples older than everything in a full buffer, prunes
// and resets — at capacities 2 to 64, and compares every observable after
// every operation.
func TestInterpBufferMatchesSliceReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for capacity := 2; capacity <= 64; capacity++ {
		for trace := 0; trace < 20; trace++ {
			delay := time.Duration(rng.IntN(4)) * 10 * time.Millisecond
			ring := NewInterpBuffer(delay, capacity, Linear{})
			ref := &sliceBuffer{cap: capacity, delay: delay, extrap: Linear{}}
			var clock time.Duration // newest stamp pushed so far
			for op := 0; op < 400; op++ {
				var desc string
				switch k := rng.IntN(100); {
				case k < 50: // newest sample
					clock += time.Duration(1+rng.IntN(20)) * time.Millisecond
					p := sampleAt(clock, rng.Float64())
					ring.Push(p)
					ref.Push(p)
					desc = fmt.Sprintf("push newest %v", clock)
				case k < 70: // out of order, within or before the buffered span
					at := clock - time.Duration(rng.IntN(int(clock/time.Millisecond)+1))*time.Millisecond
					p := sampleAt(at, rng.Float64())
					ring.Push(p)
					ref.Push(p)
					desc = fmt.Sprintf("push late %v", at)
				case k < 80: // duplicate of a buffered stamp
					if len(ref.samples) == 0 {
						continue
					}
					at := ref.samples[rng.IntN(len(ref.samples))].Time
					p := sampleAt(at, rng.Float64())
					ring.Push(p)
					ref.Push(p)
					desc = fmt.Sprintf("push duplicate %v", at)
				case k < 85: // older than everything
					at := -time.Duration(1+rng.IntN(50)) * time.Millisecond
					if len(ref.samples) > 0 {
						at += ref.samples[0].Time
					}
					p := sampleAt(at, rng.Float64())
					ring.Push(p)
					ref.Push(p)
					desc = fmt.Sprintf("push oldest %v", at)
				case k < 93:
					s := ref.samples
					if len(s) == 0 {
						continue
					}
					cut := s[rng.IntN(len(s))].Time + time.Duration(rng.IntN(3)-1)*time.Millisecond
					ring.PruneBefore(cut)
					ref.PruneBefore(cut)
					desc = fmt.Sprintf("prune before %v", cut)
				case k < 95:
					ring.Reset()
					ref.Reset()
					desc = "reset"
				default:
					now := clock + time.Duration(rng.IntN(80)-40)*time.Millisecond
					got, gotOK := ring.Sample(now)
					want, wantOK := ref.Sample(now)
					if got != want || gotOK != wantOK {
						t.Fatalf("cap %d trace %d op %d: Sample(%v) = %v,%v, want %v,%v", capacity, trace, op, now, got, gotOK, want, wantOK)
					}
					desc = fmt.Sprintf("sample %v", now)
				}
				if !slices.Equal(contents(ring), ref.samples) {
					t.Fatalf("cap %d trace %d op %d (%s): contents\n%v\nwant\n%v", capacity, trace, op, desc, contents(ring), ref.samples)
				}
				if ring.Len() != len(ref.samples) {
					t.Fatalf("cap %d trace %d op %d (%s): Len = %d, want %d", capacity, trace, op, desc, ring.Len(), len(ref.samples))
				}
				got, gotOK := ring.Newest()
				want, wantOK := ref.Newest()
				if got != want || gotOK != wantOK {
					t.Fatalf("cap %d trace %d op %d (%s): Newest = %v,%v, want %v,%v", capacity, trace, op, desc, got, gotOK, want, wantOK)
				}
				gi, ge := ring.Stats()
				if gi != ref.interpolated || ge != ref.extrapolated {
					t.Fatalf("cap %d trace %d op %d (%s): Stats = %d/%d, want %d/%d", capacity, trace, op, desc, gi, ge, ref.interpolated, ref.extrapolated)
				}
			}
		}
	}
}

func BenchmarkInterpBufferPushSample(b *testing.B) {
	buf := NewInterpBuffer(100*time.Millisecond, 64, nil)
	for i := 0; i < b.N; i++ {
		tm := time.Duration(i) * 10 * time.Millisecond
		buf.Push(sampleAt(tm, float64(i)))
		if _, ok := buf.Sample(tm); !ok {
			b.Fatal("no sample")
		}
	}
}
