package main

import (
	"runtime"
	"sort"
	"time"

	"repro/internal/bounds"
	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/rng"
	"repro/internal/u128"
)

// opinions is k in every workload.
const opinions = 32

// setupReps batches of setupBatch set-ups each are timed; setup_s is the
// median batch's time per set-up. One set-up takes microseconds, so a
// single timing would measure the clock and the cache state, not the
// code.
const (
	setupReps  = 21
	setupBatch = 100
)

// A cellSpec is one (n, chunk) pair of an in-process workload: each round
// streams chunk trials of it through one experiment.Stream call.
type cellSpec struct {
	n     int64
	chunk int
}

// cell is a cellSpec with its config and folded results.
type cell struct {
	cellSpec
	cfg    *conf.Config
	seed   uint64
	trials int
	sum    float64 // consensus times, for the mean-in-bounds check
}

// inproc runs closed-loop consensus trials of several cells at
// parallelism 1, round after round, each round streaming one chunk of
// every cell.
type inproc struct {
	res          *result
	cells        []*cell
	kern         core.Kernel
	trials       int
	interactions u128.U128
	lat          []float64 // per-trial latency, ms
	tr           *tracer   // nil when untraced
	parent       int32     // span the rounds hang under when traced
	counts       *coreCounts
}

// setupInproc validates each cell's configuration and builds an arena
// for it, setupReps·setupBatch times, and returns the cells of the last
// set-up and the median time of one.
func setupInproc(specs []cellSpec, seed uint64) ([]*cell, float64, error) {
	var cells []*cell
	batch := func() error {
		for range setupBatch {
			cells = cells[:0]
			for i, s := range specs {
				cfg, err := conf.Uniform(s.n, opinions, 0)
				if err == nil {
					err = cfg.Validate()
				}
				if err != nil {
					return err
				}
				var a experiment.Arena
				if _, err := a.Simulator(cfg, rng.New(seed)); err != nil {
					return err
				}
				cells = append(cells, &cell{cellSpec: s, cfg: cfg, seed: rng.Derive(seed, uint64(i))})
			}
		}
		return nil
	}
	// Untimed batches first: the process's first set-ups grow the heap
	// from the operating system, which no later set-up pays.
	for warm := time.Now(); time.Since(warm) < 100*time.Millisecond; {
		if err := batch(); err != nil {
			return nil, 0, err
		}
	}
	times := make([]float64, setupReps)
	for rep := range times {
		// Each batch starts from a collected heap, so no batch pays for
		// the garbage of the one before.
		runtime.GC()
		start := time.Now()
		if err := batch(); err != nil {
			return nil, 0, err
		}
		times[rep] = time.Since(start).Seconds() / setupBatch
	}
	sort.Float64s(times)
	return cells, median(times), nil
}

// round streams one chunk of every cell. Chunk r of a cell draws its
// trials from rng.Derive(cell seed, r), so rounds repeat exactly across
// runs and between the untraced and traced halves of a traced run.
func (p *inproc) round(r int) {
	for ci, c := range p.cells {
		seed := rng.Derive(c.seed, uint64(r))
		last := time.Now()
		sink := func(i int, res core.Result) {
			now := time.Now()
			p.lat = append(p.lat, float64(now.Sub(last))/1e6)
			last = now
			p.fold(c, r, i, res)
		}
		if p.tr == nil {
			experiment.Stream(c.chunk, 1, seed, func(_ int, src *rng.Source, a *experiment.Arena) core.Result {
				sim, err := a.Simulator(c.cfg, src)
				if err != nil {
					return core.Result{}
				}
				sim.SetKernel(p.kern)
				return sim.Run(core.NoBudget)
			}, sink)
			continue
		}
		p.tracedChunk(c, ci, r, seed, sink)
	}
}

// tracedChunk is one chunk with a span around every call into the
// engine, the arena, the kernel and the fold, and the kernel's windows
// counted by an observer.
func (p *inproc) tracedChunk(c *cell, ci, r int, seed uint64, sink func(int, core.Result)) {
	t := p.tr
	id := func(i int) int64 { return int64(r)<<32 | int64(ci)<<24 | int64(i) }
	stream := t.begin("experiment.stream", p.parent, -1)
	experiment.Stream(c.chunk, 1, seed, func(i int, src *rng.Source, a *experiment.Arena) core.Result {
		trial := t.begin("experiment.trial", stream, id(i))
		reset := t.begin("experiment.reset", trial, id(i))
		sim, err := a.Simulator(c.cfg, src)
		t.end(reset)
		if err != nil {
			t.end(trial)
			return core.Result{}
		}
		sim.SetKernel(p.kern)
		run := t.begin("core.run", trial, id(i))
		res := sim.RunObserved(core.NoBudget, p.counts.watch)
		t.end(run)
		t.end(trial)
		return res
	}, func(i int, res core.Result) {
		fold := t.begin("experiment.fold", stream, id(i))
		sink(i, res)
		t.end(fold)
	})
	t.end(stream)
}

// fold checks one trial and adds it to the totals.
func (p *inproc) fold(c *cell, r, i int, res core.Result) {
	p.res.Attempted++
	if res.Outcome != core.OutcomeConsensus {
		p.res.Failed++
		p.res.fail("n=%d round %d trial %d: outcome %v, want consensus", c.n, r, i, res.Outcome)
		return
	}
	p.trials++
	c.trials++
	c.sum += res.Interactions.Float64()
	p.interactions = p.interactions.Add(res.Interactions)
}

// checkBounds checks each cell's mean consensus time against the
// envelope [bounds.LowerBound, bounds.Theorem2Upper] for its (n, k).
func (p *inproc) checkBounds() {
	for _, c := range p.cells {
		if c.trials == 0 {
			continue
		}
		mean := c.sum / float64(c.trials)
		if lo, hi, ok := bounds.Bracket(c.n, opinions, mean); !ok {
			p.res.Failed++
			p.res.fail("n=%d: mean consensus time %.6g outside [%.6g, %.6g]", c.n, mean, lo, hi)
		}
	}
}

// runInproc measures an in-process workload for d: untraced, it reports
// the end-to-end metrics; traced, it runs rounds untraced for half of d,
// then the same rounds again traced, and reports the per-layer metrics.
func runInproc(name string, specs []cellSpec, seed uint64, d time.Duration, traced bool) *result {
	res := newResult(name, traced, d.Seconds())
	cells, setup, err := setupInproc(specs, seed)
	if err != nil {
		res.Failed++
		res.fail("setup: %v", err)
		return res
	}
	p := &inproc{res: res, cells: cells, kern: core.KernelAuto(0), lat: make([]float64, 0, 1<<16)}
	if traced {
		p.traced(d / 2)
		p.checkBounds()
		return res
	}
	res.set("setup_s", setup)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	rounds := 0
	var waves []float64
	for time.Since(start) < d {
		w := time.Now()
		p.round(rounds)
		waves = append(waves, float64(time.Since(w))/1e6)
		rounds++
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)

	res.set("trials_per_s", float64(p.trials)/wall.Seconds())
	res.set("ns_per_interaction", nsPer(int64(wall), p.interactions))
	res.setTail("trial_ms", p.lat)
	res.setTail("wave_ms", waves)
	res.set("alloc_b_per_trial", float64(after.TotalAlloc-before.TotalAlloc)/float64(max(p.trials, 1)))
	res.set("peak_heap_mb", float64(after.HeapSys)/(1<<20))
	p.checkBounds()
	return res
}

// traced runs rounds untraced for half, then repeats exactly those rounds
// traced, so the tracing overhead is measured on identical trials.
func (p *inproc) traced(half time.Duration) {
	start := time.Now()
	rounds := 0
	for time.Since(start) < half {
		p.round(rounds)
		rounds++
	}
	untraced := time.Since(start)

	p.tr = newTracer()
	p.counts = &coreCounts{}
	p.res.tracer = p.tr
	trialsBefore, interactionsBefore := p.trials, p.interactions
	root := p.tr.begin("bench.rounds", -1, -1)
	p.parent = root
	for r := 0; r < rounds; r++ {
		p.round(r)
	}
	p.tr.end(root)
	trials := p.trials - trialsBefore
	interactions := p.interactions.Sub(interactionsBefore)

	res := p.res
	wall := p.tr.spans[root].end - p.tr.spans[root].start
	res.set("trace.overhead_frac", float64(wall)/float64(untraced)-1)
	acc, err := p.tr.account(root)
	if err != nil {
		res.fail("%v", err)
	}
	res.Accounting = &acc
	setShares(res, acc)

	runNs := p.tr.total("core.run")
	foldNs := p.tr.total("experiment.fold")
	streamNs := p.tr.total("experiment.stream")
	nt := float64(max(trials, 1))
	c := p.counts
	setCoreMetrics(res, runNs, nt, interactions.Float64(), c.kernelCounts)
	res.set("experiment.reset_us_per_trial", float64(p.tr.total("experiment.reset"))/1e3/nt)
	res.set("experiment.fold_us_per_trial", float64(foldNs)/1e3/nt)
	res.set("experiment.engine_overhead_frac", float64(streamNs-p.tr.total("experiment.trial")-foldNs)/float64(streamNs))

	costs := measureUnitCosts(c, rng.Derive(p.cells[0].seed, 1<<40))
	for k, v := range costs {
		res.set(k, v)
	}
	res.set("core.modelled_frac", c.modelledNs(costs)/float64(runNs))
}

// setShares reports each layer's self time, and the residual no layer
// span covers, as shares of the accounted wall.
func setShares(res *result, acc accounting) {
	w := float64(acc.WallNs)
	for _, l := range []string{"core", "experiment", "phase", "dist"} {
		res.set(l+".self_frac", float64(acc.SelfNs[l])/w)
	}
	res.set("trace.unexplained_frac", float64(acc.ResidualNs)/w)
}

// small-n-fleet: two trials at n = 10³ per trial at n = 10⁴, so a round
// spends about as long in each cell and the median trial sits inside the
// n = 10³ mode rather than on the gap between the two modes.
func runSmallNFleet(seed uint64, d time.Duration, traced bool, _ string) *result {
	return runInproc("small-n-fleet", []cellSpec{{n: 1e3, chunk: 16}, {n: 1e4, chunk: 8}}, seed, d, traced)
}

func runLargeN(seed uint64, d time.Duration, traced bool, _ string) *result {
	return runInproc("large-n", []cellSpec{{n: 1e8, chunk: 2}}, seed, d, traced)
}
