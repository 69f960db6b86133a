package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"metaclass/classroom"
	"metaclass/internal/metrics"
	"metaclass/internal/protocol"
)

// episodeResult is everything one episode measured.
type episodeResult struct {
	setup   time.Duration
	win     window
	poseAge metrics.Histogram
	joinMs  []float64
	conv    convergence
}

// runEpisode builds a fresh deployment with mk, sets it up (timed),
// measures a window of the given simulated length, runs the convergence
// oracle and tears down with the frame-leak audit.
func runEpisode(w *workload, seed int64, length time.Duration, mk func(classroom.Config) (topo, error)) (episodeResult, error) {
	var r episodeResult
	live0 := protocol.LiveFrames()
	e, setup, err := startEpisode(w, seed, mk)
	if err != nil {
		return r, err
	}
	r.setup = setup
	if r.win, err = e.measure(length); err != nil {
		return r, fmt.Errorf("window: %w", err)
	}
	r.poseAge = e.poseAge
	if r.conv, err = e.converge(); err != nil {
		return r, fmt.Errorf("convergence: %w", err)
	}
	if len(e.pending) > 0 {
		return r, fmt.Errorf("learner %d never synced", e.pending[0].id)
	}
	for _, j := range e.joins {
		r.joinMs = append(r.joinMs, ms(j.syncedAt-j.joined))
	}
	if err := e.tearDown(live0); err != nil {
		return r, fmt.Errorf("teardown: %w", err)
	}
	return r, nil
}

// startEpisode builds a deployment with mk and sets it up, returning the
// wall time that took.
func startEpisode(w *workload, seed int64, mk func(classroom.Config) (topo, error)) (*episode, time.Duration, error) {
	cfg := w.cfg
	cfg.Seed = seed
	// Collect the previous deployment's garbage first, so no set-up pays
	// for another's.
	runtime.GC()
	t0 := time.Now()
	t, err := mk(cfg)
	if err != nil {
		return nil, 0, err
	}
	e := newEpisode(w, t, seed)
	if err := e.setUp(); err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return e, time.Since(t0), nil
}

// setUpOnly times one set-up and tears it down with the leak audit.
func setUpOnly(w *workload, seed int64, mk func(classroom.Config) (topo, error)) (time.Duration, error) {
	live0 := protocol.LiveFrames()
	e, d, err := startEpisode(w, seed, mk)
	if err != nil {
		return 0, err
	}
	return d, e.tearDown(live0)
}

// aggregate pools episodes. Virtual-time samples are pooled; set-up time
// and heap are per-episode medians, and convergence time is pooled over
// every episode's replicas.
// The step-time figures are the best episode's: every episode does the same
// kind of work, and the host's steal time (measured at over a quarter of
// the CPU on the reference host at busy times) only ever adds to it.
type aggregate struct {
	setup, heap, converge []float64
	// Per-episode wall-clock figures.
	realtime, stepP50, stepP95, cpuPerSimS []float64
	steps                                  int
	stepWall, sim, cpu                     time.Duration
	allocs, egress                         uint64
	poseAge                                metrics.Histogram
	joinMs                                 []float64

	joins, pairs, unconverged int
	localPairs                int
}

func (a *aggregate) add(r episodeResult) {
	a.setup = append(a.setup, r.setup.Seconds())
	a.heap = append(a.heap, float64(r.win.heapLive)/(1<<20))
	for _, d := range r.conv.replicas {
		a.converge = append(a.converge, ms(d))
	}
	steps := make([]float64, len(r.win.steps))
	for i, s := range r.win.steps {
		steps[i] = ms(s)
	}
	a.steps += len(steps)
	a.stepP50 = append(a.stepP50, quantile(steps, 0.50))
	a.stepP95 = append(a.stepP95, quantile(steps, 0.95))
	a.realtime = append(a.realtime, r.win.sim.Seconds()/r.win.stepWall.Seconds())
	a.cpuPerSimS = append(a.cpuPerSimS, ms(r.win.cpu)/r.win.sim.Seconds())
	a.stepWall += r.win.stepWall
	a.sim += r.win.sim
	a.cpu += r.win.cpu
	a.allocs += r.win.allocs
	a.egress += r.win.egress
	a.poseAge.Merge(&r.poseAge)
	a.joinMs = append(a.joinMs, r.joinMs...)
	a.joins += len(r.joinMs)
	a.pairs += r.conv.pairs
	a.unconverged += r.conv.unconverged
	a.localPairs += r.conv.localPairs
}

// report is the end-to-end metric set, in print order.
type report struct {
	rows []row
	// localPairs is the campus-local pairs the oracle left out.
	localPairs int
}

type row struct {
	name  string
	value float64
	unit  string
	note  string
	// printOnly marks a metric printed but not gated in BENCHMARK.json
	// (see README.md, "End-to-end metrics").
	printOnly bool
}

func (a *aggregate) report() report {
	simS := a.sim.Seconds()
	// A join with no first sync by its deadline fails the run, so only
	// unconverged pairs reach the numerator.
	failFrac := float64(a.unconverged) / float64(a.joins+a.pairs)
	best := fmt.Sprintf("best of %d episodes", len(a.realtime))
	steps := fmt.Sprintf("best of %d episodes, %d steps", len(a.realtime), a.steps)
	return report{rows: []row{
		{"setup_s", median(a.setup), "s", fmt.Sprintf("median of %d set-ups", len(a.setup)), false},
		{"realtime_x", slices.Max(a.realtime), "x", fmt.Sprintf("%s, %.1f simulated s", best, simS), true},
		{"step_ms_p50", slices.Min(a.stepP50), "ms", steps, true},
		{"step_ms_p95", slices.Min(a.stepP95), "ms", steps, true},
		{"cpu_ms_per_sim_s", slices.Min(a.cpuPerSimS), "ms", "user+sys, " + best, false},
		{"allocs_per_sim_s", float64(a.allocs) / simS, "allocs", "after warm-up", false},
		{"heap_live_mb", median(a.heap), "MiB", "post-GC, end of window", false},
		{"pose_age_ms_p50", ms(histQuantile(&a.poseAge, 0.50)), "ms", fmt.Sprintf("n=%d", a.poseAge.Count()), false},
		{"pose_age_ms_p95", ms(histQuantile(&a.poseAge, 0.95)), "ms", fmt.Sprintf("n=%d", a.poseAge.Count()), false},
		{"cloud_egress_kBps", float64(a.egress) / 1024 / simS, "KiB/s", "", false},
		{"join_ms_p50", quantile(a.joinMs, 0.50), "ms", fmt.Sprintf("n=%d", len(a.joinMs)), false},
		{"join_ms_p95", quantile(a.joinMs, 0.95), "ms", fmt.Sprintf("n=%d", len(a.joinMs)), false},
		{"converge_ms", mean(a.converge), "ms", fmt.Sprintf("mean of %d replicas, slowest %.0f ms", len(a.converge), slices.Max(a.converge)), false},
		{"fail_frac", failFrac, "fraction", fmt.Sprintf("%d of %d failed (JSON: failed/attempted)", a.unconverged, a.joins+a.pairs), true},
	}, localPairs: a.localPairs}
}

// virtualKeys are the deterministic-per-seed metrics.
var virtualKeys = []string{"pose_age_ms_p50", "pose_age_ms_p95", "cloud_egress_kBps",
	"join_ms_p50", "join_ms_p95", "converge_ms", "fail_frac"}

func (r report) value(name string) float64 {
	for _, x := range r.rows {
		if x.name == name {
			return x.value
		}
	}
	return 0
}

func (r report) jsonMetrics() map[string]metric {
	out := make(map[string]metric)
	for _, x := range r.rows {
		if !x.printOnly {
			out[x.name] = metric{Value: x.value, Unit: x.unit}
		}
	}
	return out
}

func printEndToEnd(w *workload, r report) {
	fmt.Printf("end-to-end metrics, workload %s (tracing off)\n", w.name)
	for _, x := range r.rows {
		fmt.Printf("  %-20s %14.4f %-9s %s\n", x.name, x.value, x.unit, x.note)
	}
	if r.localPairs > 0 {
		fmt.Printf("  campus locals: %d (learner, entity) pairs at stop, left out of converge_ms and fail_frac:\n"+
			"    their edge extrapolates them from fusion until its StaleAfter despawn\n", r.localPairs)
	}
}

// printHost prints the host and run block every result carries.
func printHost(w *workload, o options, p runPlan) {
	fmt.Printf("host: cpu=%q nproc=%d GOMAXPROCS=%d node_parallelism=default(%d) go=%s rev=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOMAXPROCS(0),
		runtime.Version(), gitRev())
	fmt.Printf("run: workload=%s seed=%d seconds=%d trace=%d episodes=%d window=%v/episode (simulated)\n",
		w.name, o.seed, o.seconds, o.trace, p.episodes, p.window)
	fmt.Printf("workload: %s\n", w.why)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev reads the checked-out commit from .git in the working directory,
// without running git; a checkout that is not a repository reports
// "unknown".
func gitRev() string { return gitRevIn(".") }

// gitRevIn resolves HEAD of the repository whose work tree is root. It
// follows a ".git" file ("gitdir: <path>", as in a linked worktree) and
// its "commondir", and looks a branch up in packed-refs when it has no
// loose ref file.
func gitRevIn(root string) string {
	dir := filepath.Join(root, ".git")
	if b, err := os.ReadFile(dir); err == nil {
		p, ok := strings.CutPrefix(strings.TrimSpace(string(b)), "gitdir: ")
		if !ok {
			return "unknown"
		}
		dir = relTo(root, p)
	}
	head, err := os.ReadFile(filepath.Join(dir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return shortRev(ref)
	}
	common := dir
	if b, err := os.ReadFile(filepath.Join(dir, "commondir")); err == nil {
		common = relTo(dir, strings.TrimSpace(string(b)))
	}
	for _, d := range []string{dir, common} {
		if b, err := os.ReadFile(filepath.Join(d, ref)); err == nil {
			return shortRev(strings.TrimSpace(string(b)))
		}
	}
	packed, err := os.ReadFile(filepath.Join(common, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if rev, name, ok := strings.Cut(strings.TrimSpace(line), " "); ok && name == ref {
			return shortRev(rev)
		}
	}
	return "unknown"
}

// relTo resolves p against base unless it is absolute.
func relTo(base, p string) string {
	if filepath.IsAbs(p) {
		return p
	}
	return filepath.Join(base, p)
}

func shortRev(s string) string {
	if len(s) > 12 {
		return s[:12]
	}
	return s
}

// processCPU is the process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// histQuantile interpolates the q-quantile of h inside its bucket.
// Histogram.Quantile returns the lower bound of the bucket holding the
// sample of rank q*n (buckets are 1/8 octave wide), so it reads the same
// figure across many runs. Probing Quantile at neighbouring ranks finds the
// ranks the bucket holds; the sample's position among them places it
// log-linearly inside the bucket.
func histQuantile(h *metrics.Histogram, q float64) time.Duration {
	n := int(h.Count())
	if n == 0 {
		return 0
	}
	at := func(rank int) time.Duration { return h.Quantile((float64(rank) + 0.5) / float64(n)) }
	k := min(int(q*float64(n)), n-1)
	lower := at(k)
	first := sort.Search(k+1, func(r int) bool { return at(r) >= lower })
	last := k + sort.Search(n-k, func(r int) bool { return at(k+r) > lower }) - 1
	frac := (float64(k-first) + 0.5) / float64(last-first+1)
	return time.Duration(float64(lower) * math.Exp2(frac/8))
}
