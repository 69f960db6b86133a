package main

import (
	"os"
	"path/filepath"
	"testing"
)

// quickVirtual runs a workload in quick mode on classroom.Deployment and
// returns its virtual-time metrics.
func quickVirtual(t *testing.T, name string, seed int64) map[string]float64 {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := runEpisodes(w, seed, planFor(w, options{quick: true}), deployFactory)
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	rep := agg.report()
	out := make(map[string]float64)
	for _, k := range virtualKeys {
		out[k] = rep.value(k)
	}
	return out
}

func TestSameSeedSameVirtualMetrics(t *testing.T) {
	a := quickVirtual(t, "blended-churn", 7)
	b := quickVirtual(t, "blended-churn", 7)
	for k, v := range a {
		if b[k] != v {
			t.Errorf("%s: %v then %v with the same seed", k, v, b[k])
		}
	}
}

func TestSeedReachesGenerator(t *testing.T) {
	a := quickVirtual(t, "blended-churn", 7)
	b := quickVirtual(t, "blended-churn", 8)
	for _, k := range []string{"cloud_egress_kBps", "join_ms_p50", "pose_age_ms_p95"} {
		if a[k] == b[k] {
			t.Errorf("%s: %v for seeds 7 and 8; the seed does not reach the workload", k, a[k])
		}
	}
}

// TestQuickAllWorkloads runs every workload end to end in quick mode and
// checks that every reported end-to-end metric is positive.
func TestQuickAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			agg, err := runEpisodes(w, 3, planFor(w, options{quick: true}), deployFactory)
			if err != nil {
				t.Fatal(err)
			}
			for name, m := range agg.report().jsonMetrics() {
				if !(m.Value > 0) {
					t.Errorf("%s = %v, want > 0", name, m.Value)
				}
			}
		})
	}
}

// TestTracedMatchesUntraced checks the traced topology reproduces the
// deployment exactly, which the traced run also enforces on every run.
func TestTracedMatchesUntraced(t *testing.T) {
	w, _ := workloadByName("blended-churn")
	if _, err := perLayer(w, options{workload: w.name, seed: 5, quick: true, trace: 1}, planFor(w, options{quick: true})); err != nil {
		t.Fatal(err)
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "lecture", "--trace", "2"},
		{"--workload", "lecture", "--seconds", "0"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%q) succeeded", args)
		}
	}
}

// TestGitRev resolves HEAD through a loose ref, packed-refs, a detached
// HEAD and a linked worktree's ".git" file.
func TestGitRev(t *testing.T) {
	const rev = "0123456789abcdef0123456789abcdef01234567"
	write := func(path, body string) {
		t.Helper()
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	root := t.TempDir()
	git := filepath.Join(root, "main", ".git")
	write(filepath.Join(git, "HEAD"), "ref: refs/heads/main\n")
	write(filepath.Join(git, "packed-refs"), "# pack-refs with: peeled fully-peeled sorted\n"+rev+" refs/heads/main\n")
	if got := gitRevIn(filepath.Join(root, "main")); got != rev[:12] {
		t.Errorf("packed ref: got %q", got)
	}
	write(filepath.Join(git, "refs", "heads", "main"), "fedcba9876543210fedcba9876543210fedcba98\n")
	if got := gitRevIn(filepath.Join(root, "main")); got != "fedcba987654" {
		t.Errorf("loose ref: got %q", got)
	}
	wt := filepath.Join(git, "worktrees", "wt")
	write(filepath.Join(wt, "HEAD"), "ref: refs/heads/topic\n")
	write(filepath.Join(wt, "commondir"), "../..\n")
	write(filepath.Join(git, "packed-refs"), rev+" refs/heads/topic\n")
	write(filepath.Join(root, "wt", ".git"), "gitdir: "+wt+"\n")
	if got := gitRevIn(filepath.Join(root, "wt")); got != rev[:12] {
		t.Errorf("worktree: got %q", got)
	}
	write(filepath.Join(wt, "HEAD"), rev+"\n")
	if got := gitRevIn(filepath.Join(root, "wt")); got != rev[:12] {
		t.Errorf("detached: got %q", got)
	}
	if got := gitRevIn(filepath.Join(root, "none")); got != "unknown" {
		t.Errorf("no repository: got %q", got)
	}
}
