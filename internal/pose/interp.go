package pose

import (
	"time"
)

// InterpBuffer is the receiver-side playout buffer: it stores recent pose
// samples for a remote participant and reconstructs the pose at display time
// by rendering Delay behind the newest sample (interpolation) and falling
// back to an Extrapolator when the buffer runs dry.
//
// The Delay trades latency against smoothness: it must cover network jitter
// or playback stutters, but adds directly to the end-to-end motion-to-photon
// lag the paper's 100 ms budget constrains.
//
// Samples live in a fixed ring of exactly capacity slots, oldest first from
// head, so pushing the newest sample writes one slot whether or not the ring
// is full; only an out-of-order insert moves samples, and only those newer
// than it.
type InterpBuffer struct {
	ring []Pose // len(ring) is the capacity
	head int    // ring index of the oldest sample
	n    int    // number of buffered samples
	// newest is the newest sample's Time when n > 0. Push compares against
	// this copy, so the in-order path touches the ring only to write.
	newest time.Duration
	delay  time.Duration
	extrap Extrapolator

	interpolated uint64
	extrapolated uint64
}

// NewInterpBuffer creates a buffer rendering delay behind live, holding up to
// capacity samples, using extrap beyond the newest sample. A nil extrap
// defaults to Linear; capacity < 2 defaults to 64.
func NewInterpBuffer(delay time.Duration, capacity int, extrap Extrapolator) *InterpBuffer {
	if capacity < 2 {
		capacity = 64
	}
	b := new(InterpBuffer)
	b.Init(delay, make([]Pose, capacity), extrap)
	return b
}

// Init makes b an empty buffer rendering delay behind live that holds up to
// len(ring) samples in ring, which b owns from then on. It lets an owner
// embed buffers in its own records and carve their rings from one slab. A
// nil extrap defaults to Linear; ring must have at least 2 slots.
func (b *InterpBuffer) Init(delay time.Duration, ring []Pose, extrap Extrapolator) {
	if len(ring) < 2 {
		panic("pose: InterpBuffer ring needs at least 2 slots")
	}
	if extrap == nil {
		extrap = Linear{}
	}
	*b = InterpBuffer{ring: ring, delay: delay, extrap: extrap}
}

// at returns the i-th oldest buffered sample (0 <= i < capacity).
func (b *InterpBuffer) at(i int) *Pose {
	i += b.head
	if i >= len(b.ring) {
		i -= len(b.ring)
	}
	return &b.ring[i]
}

// Push inserts a sample. Out-of-order samples older than the newest are
// inserted in order; duplicates by timestamp replace the stored sample. A
// full buffer evicts its oldest sample, so an out-of-order sample older than
// everything in a full buffer is dropped.
func (b *InterpBuffer) Push(p Pose) {
	// Fast path: newest sample.
	if b.n == 0 || p.Time > b.newest {
		*b.at(b.n) = p // when full, this is the oldest sample's slot
		b.newest = p.Time
		if b.n == len(b.ring) {
			b.dropOldest()
		} else {
			b.n++
		}
		return
	}
	// Find the newest sample not after p (buffers are small; linear scan
	// from the back).
	i := b.n - 1
	for i >= 0 && b.at(i).Time > p.Time {
		i--
	}
	if i >= 0 && b.at(i).Time == p.Time {
		*b.at(i) = p
		return
	}
	if b.n == len(b.ring) {
		if i < 0 {
			return // older than everything kept: evicted on arrival
		}
		b.dropOldest()
		b.n--
		i--
	}
	// Shift the samples newer than p up one slot and write p below them.
	for j := b.n; j > i+1; j-- {
		*b.at(j) = *b.at(j - 1)
	}
	*b.at(i + 1) = p
	b.n++
}

// dropOldest advances head past the oldest sample without changing n.
func (b *InterpBuffer) dropOldest() {
	if b.head++; b.head == len(b.ring) {
		b.head = 0
	}
}

// Len returns the number of buffered samples.
func (b *InterpBuffer) Len() int { return b.n }

// Delay returns the configured playout delay.
func (b *InterpBuffer) Delay() time.Duration { return b.delay }

// Newest returns the most recent sample and whether one exists.
func (b *InterpBuffer) Newest() (Pose, bool) {
	if b.n == 0 {
		return Pose{}, false
	}
	return *b.at(b.n - 1), true
}

// Sample reconstructs the pose at display time now, rendering at target time
// now - Delay. It returns false only when the buffer is empty.
func (b *InterpBuffer) Sample(now time.Duration) (Pose, bool) {
	n := b.n
	if n == 0 {
		return Pose{}, false
	}
	target := now - b.delay
	newest := b.at(n - 1)
	if target >= newest.Time {
		// Beyond buffered data: dead-reckon forward from the newest sample.
		b.extrapolated++
		return b.extrap.Predict(*newest, target).At(now), true
	}
	if oldest := b.at(0); target <= oldest.Time {
		return oldest.At(now), true
	}
	// Binary search for the bracketing pair.
	lo, hi := 0, n-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if b.at(mid).Time <= target {
			lo = mid
		} else {
			hi = mid
		}
	}
	a, c := b.at(lo), b.at(hi)
	span := c.Time - a.Time
	t := 0.0
	if span > 0 {
		t = float64(target-a.Time) / float64(span)
	}
	b.interpolated++
	return LerpPose(*a, *c, t).At(now), true
}

// Stats reports how many samples were answered by interpolation vs.
// extrapolation — the extrapolation share rises when updates arrive slower
// than Delay covers.
func (b *InterpBuffer) Stats() (interpolated, extrapolated uint64) {
	return b.interpolated, b.extrapolated
}

// PruneBefore discards samples older than t (e.g. after a seat reassignment
// invalidates the motion history).
func (b *InterpBuffer) PruneBefore(t time.Duration) {
	for b.n > 0 && b.at(0).Time < t {
		b.dropOldest()
		b.n--
	}
}

// Reset clears the buffer's samples and counters for reuse, keeping its ring
// capacity, delay, and extrapolator. It is the pooling hook: a recycled
// buffer must carry no motion history or stats from its previous entity.
func (b *InterpBuffer) Reset() {
	b.head, b.n = 0, 0
	b.interpolated, b.extrapolated = 0, 0
}
