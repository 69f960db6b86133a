package core

import (
	"metaclass/internal/protocol"
	"metaclass/internal/work"
)

// encodeFailed marks a cohort whose payload could not be encoded; it is
// only ever compared by pointer, never used as a frame. encodePending
// reserves a slot inside EncodePlan so each cohort is queued exactly once;
// pool runs are synchronous, so it never survives past EncodePlan's return.
var (
	encodeFailed  = &protocol.Frame{}
	encodePending = &protocol.Frame{}
)

// FrameCache turns a PlanTick result into refcounted wire frames: EncodePlan
// encodes each distinct cohort payload exactly once per tick, and FrameFor
// hands the identical pooled frame to every cohort member with one
// reference per recipient. The cache itself holds one base reference per
// cohort frame, dropped at the next Reset, so a frame's bytes live exactly
// as long as the slowest in-flight copy needs them and then return to the
// frame pool.
type FrameCache struct {
	frames []*protocol.Frame

	// Encode scratch (see EncodePlan): the distinct cohorts of the plan
	// being encoded and the hoisted job body, built once so pool runs
	// allocate nothing.
	jobs []encodeJob
	fn   func(worker, i int)
}

// encodeJob is one cohort's encode: the payload and the frame-table slot it
// fills. Slots are distinct per job, so jobs run concurrently.
type encodeJob struct {
	msg    protocol.Message
	cohort int
}

// Reset releases the cache's base reference on every cohort frame and
// clears the table for a new tick. Call before iterating a new PlanTick
// result, and once more when the owning server stops (so the final tick's
// frames are not pinned forever).
func (c *FrameCache) Reset() {
	for i, f := range c.frames {
		if f != nil && f != encodeFailed && f != encodePending {
			f.Release()
		}
		c.frames[i] = nil
	}
	c.frames = c.frames[:0]
}

// FrameFor returns the frame EncodePlan encoded for pm's cohort, with one
// reference owned by the caller. The caller must consume that reference
// exactly once — normally by passing the frame to netsim.Network.SendFrame,
// which releases it on every outcome. It returns nil when the cohort failed
// to encode or was never encoded this tick (callers should count an encode
// error per affected peer, matching per-peer encoding semantics).
func (c *FrameCache) FrameFor(pm PeerMessage) *protocol.Frame {
	if pm.Cohort >= len(c.frames) {
		return nil
	}
	f := c.frames[pm.Cohort]
	if f == nil || f == encodeFailed {
		return nil
	}
	f.Retain()
	return f
}

// EncodePlan encodes every distinct cohort of plan not yet in the table,
// across the pool's workers (inline on a nil or 1-worker pool), so the
// subsequent in-order FrameFor walk only retains cached frames. Each job
// encodes into its own frame-table slot; EncodeFrame itself is thread-safe
// (pooled frames, atomic refcounts). Cohorts whose payload fails to encode
// get the failure sentinel — FrameFor reports them as nil per recipient, and
// no frame reference leaks.
func (c *FrameCache) EncodePlan(plan []PeerMessage, pool *work.Pool) {
	jobs := c.jobs[:0]
	for _, pm := range plan {
		for pm.Cohort >= len(c.frames) {
			c.frames = append(c.frames, nil)
		}
		if c.frames[pm.Cohort] == nil {
			c.frames[pm.Cohort] = encodePending
			jobs = append(jobs, encodeJob{msg: pm.Msg, cohort: pm.Cohort})
		}
	}
	c.jobs = jobs
	if c.fn == nil {
		c.fn = c.encodeJobAt
	}
	pool.Run(len(jobs), c.fn)
	// Release payload references so plan messages are not pinned past the
	// tick (the jobs slice is reused scratch).
	for i := range c.jobs {
		c.jobs[i].msg = nil
	}
}

// encodeJobAt encodes one cohort's payload into its reserved slot.
func (c *FrameCache) encodeJobAt(_, i int) {
	j := &c.jobs[i]
	f, err := protocol.EncodeFrame(j.msg)
	if err != nil {
		f = encodeFailed
	}
	c.frames[j.cohort] = f
}
