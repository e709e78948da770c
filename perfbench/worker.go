package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiment"
	"repro/internal/phase"
	"repro/internal/rng"
)

// serveWorker is the shard-worker mode the fleet sessions launch. An
// untraced worker is exactly the repo's worker, experiment.ServeShard at
// worker-local parallelism 1. A traced worker serves the same protocol
// through tracedBuilder and writes its layer totals under work when the
// coordinator halts it.
func serveWorker(arg, work string, traced bool) (int, error) {
	shard, of, err := dist.ParseShardArg(arg)
	if err != nil {
		return 2, err
	}
	if !traced {
		if err := experiment.ServeShard(os.Stdin, os.Stdout, shard, of, 1); err != nil {
			return 1, err
		}
		return 0, nil
	}
	var w workerTotals
	if err := dist.Serve(os.Stdin, os.Stdout, shard, of, tracedBuilder(&w)); err != nil {
		return 1, err
	}
	data, err := json.Marshal(w)
	if err != nil {
		return 1, err
	}
	dir := filepath.Join(work, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 1, err
	}
	path := filepath.Join(dir, fmt.Sprintf("worker-%d.json", os.Getpid()))
	if err := dist.WriteFileAtomic(path, data, 0o644); err != nil {
		return 1, err
	}
	return 0, nil
}

// workerTotals are one traced worker's layer times and kernel counts.
type workerTotals struct {
	Trials       int          `json:"trials"`
	WaveNs       int64        `json:"wave_ns"`  // runner calls: the worker's engine time
	TrialNs      int64        `json:"trial_ns"` // trial callbacks
	ResetNs      int64        `json:"reset_ns"` // Arena.Simulator and Arena.Tracker
	RunNs        int64        `json:"run_ns"`   // RunWatched, less the tracker calls
	PhaseNs      int64        `json:"phase_ns"` // tracker calls
	FoldNs       int64        `json:"fold_ns"`  // result encode and protocol write
	Interactions float64      `json:"interactions"`
	Kernel       kernelCounts `json:"kernel"`
}

func (w *workerTotals) add(o workerTotals) {
	w.Trials += o.Trials
	w.WaveNs += o.WaveNs
	w.TrialNs += o.TrialNs
	w.ResetNs += o.ResetNs
	w.RunNs += o.RunNs
	w.PhaseNs += o.PhaseNs
	w.FoldNs += o.FoldNs
	w.Interactions += o.Interactions
	w.Kernel.Windows += o.Kernel.Windows
	w.Kernel.SmallWindows += o.Kernel.SmallWindows
	w.Kernel.WindowEvents += o.Kernel.WindowEvents
	w.Kernel.SmallEvents += o.Kernel.SmallEvents
	w.Kernel.ExactSteps += o.Kernel.ExactSteps
}

// report sets the worker-side per-layer metrics.
func (w *workerTotals) report(res *result) {
	if w.Trials == 0 {
		res.fail("no traced worker reported its totals")
		return
	}
	nt := float64(w.Trials)
	setCoreMetrics(res, w.RunNs, nt, w.Interactions, w.Kernel)
	res.set("experiment.reset_us_per_trial", float64(w.ResetNs)/1e3/nt)
	res.set("experiment.fold_us_per_trial", float64(w.FoldNs)/1e3/nt)
	res.set("experiment.engine_overhead_frac", float64(w.WaveNs-w.TrialNs-w.FoldNs)/float64(w.WaveNs))
	res.set("phase.us_per_trial", float64(w.PhaseNs)/1e3/nt)
}

// readWorkerTotals collects and removes the totals the traced workers of
// one session wrote.
func readWorkerTotals(work string, res *result) []workerTotals {
	dir := filepath.Join(work, "trace")
	entries, err := os.ReadDir(dir)
	if err != nil {
		res.fail("read worker totals: %v", err)
		return nil
	}
	var out []workerTotals
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "worker-") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		var w workerTotals
		if err == nil {
			err = json.Unmarshal(data, &w)
		}
		if err != nil {
			res.fail("worker totals %s: %v", e.Name(), err)
			continue
		}
		out = append(out, w)
		os.Remove(path)
	}
	return out
}

// timedTracker is the tracker as RunWatched sees it in a traced worker:
// every event is counted by path and every tracker call is timed.
type timedTracker struct {
	tr     *phase.Tracker
	counts coreCounts
	ns     int64
}

func (t *timedTracker) Watch(s *core.Simulator, ev core.Event) {
	t.counts.count(s, ev)
	start := time.Now()
	t.tr.Watch(s, ev)
	t.ns += int64(time.Since(start))
}

// tracedBuilder serves the same trials as experiment.ShardBuilder(1) for
// tracked classic specs — the same arena calls, tracker and result in
// the order experiment.RunTracked makes them — with each call timed. The
// coordinator checks its fold against the in-process reference, so a
// drift from the repo's worker fails the run.
func tracedBuilder(w *workerTotals) dist.BuildRunner {
	return func(specBytes []byte, seed uint64) (dist.TrialRunner, error) {
		var spec experiment.ShardSpec
		if err := json.Unmarshal(specBytes, &spec); err != nil {
			return nil, err
		}
		if !spec.Tracked || spec.Variant != "" {
			return nil, fmt.Errorf("traced worker serves tracked classic specs, got tracked=%v variant=%q", spec.Tracked, spec.Variant)
		}
		cfg, err := conf.FromSupport(spec.Support, spec.Undecided)
		if err != nil {
			return nil, err
		}
		kern, err := core.ParseKernel(spec.Kernel, spec.Tol)
		if err != nil {
			return nil, err
		}
		checkEvery := spec.CheckEvery
		if checkEvery <= 0 {
			checkEvery = phase.CheckIntervalFor(cfg.N(), kern)
		}
		leader, _ := cfg.Max()
		tt := &timedTracker{}
		return func(indices []int, emit func(int, []byte)) error {
			waveStart := time.Now()
			var emitErr error
			experiment.StreamIndices(indices, 1, seed, func(i int, src *rng.Source, a *experiment.Arena) experiment.ShardResult {
				start := time.Now()
				sim, err := a.Simulator(cfg, src)
				if err != nil {
					return experiment.ShardResult{Outcome: err.Error()}
				}
				sim.SetKernel(kern)
				tt.tr = a.Tracker(phase.WithCheckInterval(checkEvery))
				reset := time.Now()
				tt.tr.ObserveNow(sim)
				observed := time.Now()
				tt.ns = 0
				res := sim.RunWatched(spec.Budget(), tt)
				ran := time.Now()
				tt.tr.ObserveNow(sim)
				end := time.Now()
				w.ResetNs += int64(reset.Sub(start))
				w.RunNs += int64(ran.Sub(observed)) - tt.ns
				w.PhaseNs += int64(observed.Sub(reset)) + tt.ns + int64(end.Sub(ran))
				w.TrialNs += int64(end.Sub(start))
				w.Interactions += res.Interactions.Float64()
				w.Trials++
				return shardResultOf(experiment.USDRun{Result: res, Phases: tt.tr.Times(), InitialLeader: leader})
			}, func(i int, r experiment.ShardResult) {
				start := time.Now()
				data, err := json.Marshal(r)
				if err == nil && emitErr == nil {
					emit(i, data)
				} else if emitErr == nil {
					emitErr = err
				}
				w.FoldNs += int64(time.Since(start))
			})
			w.WaveNs += int64(time.Since(waveStart))
			w.Kernel = tt.counts.kernelCounts
			return emitErr
		}, nil
	}
}
