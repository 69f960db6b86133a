// Command perfbench is the classroom sync benchmark: it runs seeded,
// single-process netsim workloads through the public classroom.Deployment
// API, checks that the outputs are correct, and prints the end-to-end
// metrics (--trace 0) or the per-layer table (--trace 1). The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
//
//	go run . --workload lecture --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and how to run an A/B.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"metaclass/classroom"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	quick    bool
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 10, "nominal measuring time in wall seconds (fixes the simulated window)")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer table from a traced run")
	fs.BoolVar(&o.quick, "quick", false, "one short episode (smoke test)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1")
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	return o, nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func run(args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	plan := planFor(w, o)
	printHost(w, o, plan)
	var res result
	if o.trace == 0 {
		res, err = endToEnd(w, o, plan)
	} else {
		res, err = perLayer(w, o, plan)
	}
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// runPlan fixes how a run spends its simulated time.
type runPlan struct {
	episodes int
	window   time.Duration // simulated, per episode
	// extraSetups are set-ups run after the episodes and torn down at once:
	// set-up takes well under a second, so setup_s is the median of
	// several to ride out a stall of the host.
	extraSetups int
}

func planFor(w *workload, o options) runPlan {
	if o.quick {
		return runPlan{episodes: 1, window: time.Second}
	}
	total := time.Duration(float64(o.seconds) * w.simPerWall * float64(time.Second))
	per := total / episodes
	per -= per % w.tick()
	return runPlan{episodes: episodes, window: max(per, w.tick()), extraSetups: extraSetups}
}

const (
	episodes    = 3
	extraSetups = 4
)

// episodeSeed derives episode k's seed from the run seed.
func episodeSeed(seed int64, k int) int64 { return seed*1_000_003 + int64(k) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runEpisodes runs every episode of a plan on topologies from mk, then
// the plan's extra set-ups.
func runEpisodes(w *workload, seed int64, plan runPlan, mk func(classroom.Config) (topo, error)) (aggregate, error) {
	var agg aggregate
	for k := 0; k < plan.episodes; k++ {
		ep, err := runEpisode(w, episodeSeed(seed, k), plan.window, mk)
		if err != nil {
			return agg, fmt.Errorf("episode %d: %w", k, err)
		}
		agg.add(ep)
	}
	for k := plan.episodes; k < plan.episodes+plan.extraSetups; k++ {
		d, err := setUpOnly(w, episodeSeed(seed, k), mk)
		if err != nil {
			return agg, fmt.Errorf("set-up %d: %w", k, err)
		}
		agg.setup = append(agg.setup, d.Seconds())
	}
	return agg, nil
}

// endToEnd runs every episode on classroom.Deployment with tracing off.
func endToEnd(w *workload, o options, plan runPlan) (result, error) {
	agg, err := runEpisodes(w, o.seed, plan, deployFactory)
	if err != nil {
		return result{}, err
	}
	rep := agg.report()
	printEndToEnd(w, rep)
	return result{
		Correct:   true,
		Attempted: agg.joins + agg.pairs,
		Failed:    agg.unconverged,
		Metrics:   rep.jsonMetrics(),
	}, nil
}

func deployFactory(cfg classroom.Config) (topo, error) { return newDeployTopo(cfg) }
