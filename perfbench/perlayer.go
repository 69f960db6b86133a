package main

import (
	"fmt"
	"time"

	"metaclass/classroom"
)

// perLayer is the traced run. It repeats the untraced episodes as the
// reference, re-runs them on the traced topology, fails unless every
// virtual-time metric matches, and adds the stage replay.
func perLayer(w *workload, o options, plan runPlan) (result, error) {
	var ref, traced aggregate
	var spans tracer
	var dropped, fallbacks uint64
	tr := &tracer{}
	tracedFactory := func(cfg classroom.Config) (topo, error) { return newTracedTopo(cfg, tr) }
	for k := 0; k < plan.episodes; k++ {
		seed := episodeSeed(o.seed, k)
		ep, err := runEpisode(w, seed, plan.window, deployFactory)
		if err != nil {
			return result{}, fmt.Errorf("untraced episode %d: %w", k, err)
		}
		ref.add(ep)
		tp, err := runEpisode(w, seed, plan.window, tracedFactory)
		if err != nil {
			return result{}, fmt.Errorf("traced episode %d: %w", k, err)
		}
		traced.add(tp)
		if tp.win.dropped != ep.win.dropped || tp.win.fallbacks != ep.win.fallbacks || tp.win.owed != ep.win.owed {
			return result{}, fmt.Errorf("episode %d: tracing changed the program: dropped %d/%d fallbacks %d/%d owed %d/%d (untraced/traced)",
				k, ep.win.dropped, tp.win.dropped, ep.win.fallbacks, tp.win.fallbacks, ep.win.owed, tp.win.owed)
		}
		for i := range spans.self {
			spans.self[i] += tp.win.spans.self[i]
			spans.calls[i] += tp.win.spans.calls[i]
		}
		dropped += tp.win.dropped
		fallbacks += tp.win.fallbacks
	}
	refRep, trRep := ref.report(), traced.report()
	for _, k := range virtualKeys {
		if a, b := refRep.value(k), trRep.value(k); a != b {
			return result{}, fmt.Errorf("tracing changed the program: %s untraced %v traced %v", k, a, b)
		}
	}
	stages, err := replayStages(w, o.seed)
	if err != nil {
		return result{}, err
	}

	simS := traced.sim.Seconds()
	wall := traced.stepWall
	var covered time.Duration
	for _, d := range spans.self {
		covered += d
	}
	perSimS := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / simS }
	// Joins, leaves and handoffs are timed over whole episodes (set-up
	// included), not only the window.
	meanUs := func(row int) float64 {
		if tr.calls[row] == 0 {
			return 0
		}
		return float64(tr.self[row]) / float64(time.Microsecond) / float64(tr.calls[row])
	}
	fmt.Printf("per-layer table, workload %s: traced topology, %.1f simulated s, %d episodes\n", w.name, simS, plan.episodes)
	fmt.Printf("  %-24s %12s %8s %10s\n", "row", "self ms/s", "share", "calls")
	for i, d := range spans.self {
		fmt.Printf("  %-24s %12.3f %7.2f%% %10d\n", rowNames[i], perSimS(d)/1000, 100*float64(d)/float64(wall), spans.calls[i])
	}
	overhead := 100 * (wall.Seconds()/ref.stepWall.Seconds() - 1)
	fmt.Printf("  rows cover %.2f%% of the traced window's wall time (%.3f s); tracing overhead %+.1f%% against the untraced run (%.3f s)\n",
		100*float64(covered)/float64(wall), wall.Seconds(), overhead, ref.stepWall.Seconds())
	fmt.Printf("  virtual-time metrics of the traced run match the untraced run exactly (%d checked)\n", len(virtualKeys))

	perTick := func(name string) float64 {
		r := stages.row(name)
		return float64(r.total) / float64(time.Microsecond) / float64(stages.ticks)
	}
	perItem := func(name string) float64 {
		r := stages.row(name)
		if r.n == 0 {
			return 0
		}
		return float64(r.total) / float64(r.n)
	}
	fmt.Printf("stage replay, workload %s: %d ticks on one server fixture\n", w.name, stages.ticks)
	fmt.Printf("  %-24s %12s %14s\n", "stage", "us/tick", "ns/item")
	for _, r := range stages.rows {
		fmt.Printf("  %-24s %12.1f %14.1f\n", r.name, perTick(r.name), perItem(r.name))
	}
	fmt.Printf("  (stages are timed one at a time, so each row is self time; endpoint.fanout re-encodes its plan, so it includes an encode)\n")

	rep := report{rows: []row{
		{name: "netsim_deliver_us_per_s", value: perSimS(spans.self[rowDeliver]), unit: "us/s"},
		{name: "tick_us_per_s", value: perSimS(spans.self[rowTick]), unit: "us/s"},
		{name: "publish_us_per_s", value: perSimS(spans.self[rowPublish]), unit: "us/s"},
		{name: "sensors_us_per_s", value: perSimS(spans.self[rowSensors]), unit: "us/s"},
		{name: "receive_vr_us_per_s", value: perSimS(spans.self[rowRecvVR]), unit: "us/s"},
		{name: "receive_cloud_us_per_s", value: perSimS(spans.self[rowRecvCloud]), unit: "us/s"},
		{name: "receive_relay_us_per_s", value: perSimS(spans.self[rowRecvRelay]), unit: "us/s"},
		{name: "receive_edge_us_per_s", value: perSimS(spans.self[rowRecvEdge]), unit: "us/s"},
		{name: "netsim_send_us_per_s", value: perSimS(spans.self[rowSend]), unit: "us/s"},
		{name: "frames_dropped_per_s", value: float64(dropped) / simS, unit: "1/s"},
		{name: "snapshot_fallbacks_per_s", value: float64(fallbacks) / simS, unit: "1/s"},
		{name: "join_us", value: meanUs(rowJoin), unit: "us"},
		{name: "leave_us", value: meanUs(rowLeave), unit: "us"},
		{name: "migrate_us", value: meanUs(rowMigrate), unit: "us"},
		{name: "trace_coverage_pct", value: 100 * float64(covered) / float64(wall), unit: "%"},
		{name: "trace_overhead_pct", value: overhead, unit: "%"},
		{name: "pool_cpu_over_wall", value: ref.cpu.Seconds() / ref.stepWall.Seconds(), unit: "ratio"},
		{name: "refresh_us_per_tick", value: perTick("interest.refresh"), unit: "us"},
		{name: "plan_us_per_tick", value: perTick("core.plan"), unit: "us"},
		{name: "store_delta_us_per_tick", value: perTick("core.store_delta"), unit: "us"},
		{name: "owed_entries", value: float64(stages.owed), unit: "count"},
		{name: "encode_us_per_tick", value: perTick("core.encode"), unit: "us"},
		{name: "encode_reuse", value: float64(stages.planEntries) / float64(max(1, stages.distinctFrames)), unit: "ratio"},
		{name: "fanout_us_per_tick", value: perTick("endpoint.fanout"), unit: "us"},
		{name: "decode_ns_per_entity", value: perItem("protocol.decode"), unit: "ns"},
		{name: "apply_ns_per_entity", value: perItem("core.apply"), unit: "ns"},
		{name: "interp_push_ns", value: stages.interpPush, unit: "ns"},
		{name: "interp_sample_ns", value: stages.interpSample, unit: "ns"},
		{name: "snapshot_bytes", value: stages.snapshotBytes, unit: "bytes"},
		{name: "cold_apply_us", value: float64(stages.coldApply) / float64(time.Microsecond), unit: "us"},
	}}
	fmt.Printf("per-layer metrics, workload %s\n", w.name)
	for _, x := range rep.rows {
		fmt.Printf("  %-26s %14.4f %s\n", x.name, x.value, x.unit)
	}
	return result{
		Correct:   true,
		Attempted: traced.joins + traced.pairs,
		Failed:    traced.unconverged,
		Metrics:   rep.jsonMetrics(),
	}, nil
}
