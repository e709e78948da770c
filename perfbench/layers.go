package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/fenwick"
	"repro/internal/rng"
	"repro/internal/u128"
)

// smallWindowFactor is the auto kernel's categorical/chained boundary in
// units of k (core's autoCategoricalFactor): a window of fewer than
// smallWindowFactor·k events is sampled by per-event categorical draws.
const smallWindowFactor = 16

// sampleRing is how many parameter sets are kept per window kind.
const sampleRing = 64

// A paramSet is the kernel state seen at one observed step: the inputs
// the samplers and the Fenwick tree were called with there.
type paramSet struct {
	m        int64     // window size; 1 for an exact step
	u, d     int64     // undecided and decided counts
	w        u128.U128 // productive weight
	p        float64   // productive probability W/n²
	pAdopt   float64   // adopt share u·D/W of a window
	supports []int64
}

// kernelCounts counts a kernel's windows by sampling path, their events,
// and its exact steps.
type kernelCounts struct {
	Windows      int64 `json:"windows"`
	SmallWindows int64 `json:"small_windows"`
	WindowEvents int64 `json:"window_events"`
	SmallEvents  int64 `json:"small_events"`
	ExactSteps   int64 `json:"exact_steps"`
}

// setCoreMetrics reports the kernel's per-trial figures from its run time
// and counts over trials trials.
func setCoreMetrics(res *result, runNs int64, trials, interactions float64, c kernelCounts) {
	res.set("core.run_ms_per_trial", float64(runNs)/1e6/trials)
	res.set("core.interactions_per_trial", interactions/trials)
	res.set("core.windows_per_trial", float64(c.Windows)/trials)
	res.set("core.events_per_window", float64(c.WindowEvents)/float64(max(c.Windows, 1)))
	res.set("core.exact_steps_per_trial", float64(c.ExactSteps)/trials)
	res.set("core.small_window_frac", float64(c.SmallWindows)/float64(max(c.Windows, 1)))
	res.set("core.ns_per_event", float64(runNs)/float64(max(c.WindowEvents+c.ExactSteps, 1)))
}

// coreCounts is the traced run's kernel observer: it counts windows by
// sampling path and exact steps, and keeps a ring of the parameters it saw
// for each, which the standalone sampler and tree timings replay.
type coreCounts struct {
	kernelCounts
	small, chained, exact []paramSet
	seen                  [3]int64
}

// sampleStride keeps one parameter set in this many of each kind, so the
// ring spans whole trajectories rather than their last steps.
const sampleStride = 61

func (c *coreCounts) watch(s *core.Simulator, ev core.Event) {
	kind, ok := c.count(s, ev)
	if !ok {
		return
	}
	c.seen[kind]++
	if c.seen[kind]%sampleStride != 0 {
		return
	}
	ring := []*[]paramSet{&c.small, &c.chained, &c.exact}[kind]
	ps := snapshot(s, ev.Count)
	if len(*ring) < sampleRing {
		*ring = append(*ring, ps)
	} else {
		(*ring)[(c.seen[kind]/sampleStride)%sampleRing] = ps
	}
}

// count counts one event and returns its kind: 0 a categorical window, 1
// a chained window, 2 an exact step.
func (c *coreCounts) count(s *core.Simulator, ev core.Event) (int, bool) {
	kind := 2
	switch ev.Kind {
	case core.EventBatch:
		c.Windows++
		c.WindowEvents += ev.Count
		kind = 1
		if ev.Count < smallWindowFactor*int64(s.K()) {
			c.SmallWindows++
			c.SmallEvents += ev.Count
			kind = 0
		}
	case core.EventAdopt, core.EventUndecide:
		c.ExactSteps++
	default:
		return 0, false
	}
	return kind, true
}

func snapshot(s *core.Simulator, m int64) paramSet {
	u, d := s.Undecided(), s.Decided()
	w := u128.Mul64(uint64(u), uint64(d)).Add(u128.Mul64(uint64(d), uint64(d)).Sub(s.SumSquares()))
	ps := paramSet{m: m, u: u, d: d, w: w, p: s.ProductiveProbability(), supports: s.Supports(nil)}
	if wf := w.Float64(); wf > 0 {
		ps.pAdopt = u128.Mul64(uint64(u), uint64(d)).Float64() / wf
	}
	return ps
}

// unitTime is how long each standalone call is repeated.
const unitTime = 30 * time.Millisecond

// timeCalls runs call over the parameter sets round-robin for unitTime
// and returns the mean ns per call, or 0 when nothing was observed.
func timeCalls(sets []paramSet, call func(i int)) float64 {
	if len(sets) == 0 {
		return 0
	}
	calls := 0
	start := time.Now()
	for time.Since(start) < unitTime {
		for i := range sets {
			call(i)
		}
		calls += len(sets)
	}
	return float64(time.Since(start)) / float64(calls)
}

var sinkInt int64 // keeps the timed calls' results live

// measureUnitCosts times the rng samplers and the Fenwick tree standalone,
// at the parameters the traced run observed: Uint128n at categorical and
// exact-step weights, GeometricU128 at exact steps, and the binomial
// family at chained windows (at categorical windows when no chained one
// was seen). The tree runs at k = len(supports).
func measureUnitCosts(c *coreCounts, seed uint64) map[string]float64 {
	src := rng.New(seed)
	draws := append(append([]paramSet(nil), c.small...), c.exact...)
	windows := c.chained
	if len(windows) == 0 {
		windows = c.small
	}
	all := append(append([]paramSet(nil), draws...), windows...)
	out := map[string]float64{
		"rng.uint128n_ns": timeCalls(draws, func(i int) {
			sinkInt += int64(src.Uint128n(draws[i].w).Lo)
		}),
		"rng.geometric_u128_ns": timeCalls(c.exact, func(i int) {
			sinkInt += int64(src.GeometricU128(c.exact[i].p).Lo)
		}),
		"rng.binomial_ns": timeCalls(windows, func(i int) {
			sinkInt += src.Binomial(windows[i].m, windows[i].pAdopt)
		}),
		"rng.negbin_u128_ns": timeCalls(windows, func(i int) {
			sinkInt += int64(src.NegativeBinomialU128(windows[i].m, windows[i].p).Lo)
		}),
	}
	if len(all) == 0 {
		return out
	}
	k := len(all[0].supports)
	weights := make([]float64, k)
	dst := make([]int64, k)
	out["rng.multinomial_ns"] = timeCalls(windows, func(i int) {
		ps := &windows[i]
		for j, x := range ps.supports {
			weights[j] = float64(x)
		}
		src.Multinomial(int64(float64(ps.m)*ps.pAdopt), weights, dst)
		sinkInt += dst[0]
	})

	// One tree per observed state, and thresholds drawn ahead, so the
	// descent is timed alone. States with no undecide weight (one opinion
	// left) have no threshold to descend to and are skipped.
	const draws0 = 8
	var trees []*fenwick.Dual
	var descents []paramSet
	var thresholds [][draws0]u128.U128
	for _, ps := range all {
		t := fenwick.DualFromSlice(ps.supports)
		total := t.TotalWeighted(ps.d)
		if total.IsZero() {
			continue
		}
		var th [draws0]u128.U128
		for j := range th {
			th[j] = src.Uint128n(total)
		}
		trees = append(trees, t)
		descents = append(descents, ps)
		thresholds = append(thresholds, th)
	}
	if len(trees) == 0 {
		return out
	}
	tree := fenwick.DualFromSlice(descents[0].supports)
	sign := int64(1)
	out["fenwick.setall_ns"] = timeCalls(descents, func(i int) { tree.SetAll(descents[i].supports) })
	tree.SetAll(descents[0].supports)
	out["fenwick.add_ns"] = timeCalls(descents, func(int) {
		// Alternate +1 and −1 on opinion 0, so the tree stays at the
		// observed supports and every weight stays non-negative.
		tree.Add(0, sign)
		sign = -sign
	})
	round := 0
	out["fenwick.find_weighted_ns"] = timeCalls(descents, func(i int) {
		if i == 0 {
			round++
		}
		sinkInt += int64(trees[i].FindWeighted(descents[i].d, thresholds[i][round%draws0]))
	})
	return out
}

// modelledNs is the kernel time the window and step counts predict from
// the standalone unit costs:
//   - a categorical window: one Uint128n per event, a negative-binomial
//     span and a tree rebuild (its O(k) cumulative build has no
//     standalone counterpart and is left out);
//   - a chained window: one binomial, two multinomials, a span and a
//     rebuild;
//   - an exact step: a geometric skip, a Uint128n, a weighted descent and
//     a point update.
func (c *coreCounts) modelledNs(u map[string]float64) float64 {
	span := u["rng.negbin_u128_ns"] + u["fenwick.setall_ns"]
	small := float64(c.SmallEvents)*u["rng.uint128n_ns"] + float64(c.SmallWindows)*span
	chained := float64(c.Windows-c.SmallWindows) * (u["rng.binomial_ns"] + 2*u["rng.multinomial_ns"] + span)
	exact := float64(c.ExactSteps) * (u["rng.geometric_u128_ns"] + u["rng.uint128n_ns"] + u["fenwick.find_weighted_ns"] + u["fenwick.add_ns"])
	return small + chained + exact
}
