// Package phase detects the end conditions of the paper's five analysis
// phases online, regenerating the §2.1 phase table from simulation runs.
//
// The phases and their end conditions are:
//
//	Phase 1: u(t) ≥ (n − xmax(t))/2                        (Lemma 1)
//	Phase 2: ∃i ∀j≠i: xᵢ(t) − xⱼ(t) ≥ α√(n ln n)           (Lemma 8)
//	Phase 3: ∀j≠max: xmax(t) ≥ 2·xⱼ(t)                     (Lemma 11)
//	Phase 4: xmax(t) ≥ 2n/3                                (Lemma 15)
//	Phase 5: xmax(t) = n                                   (Lemma 16)
//
// Conditions are checked in order: phase p+1 can only end after phase p has
// ended, exactly as the paper's stopping times T₁ ≤ T₂ ≤ … ≤ T₅ are defined.
// Several phases may end at the same observation (for example, an initial
// configuration with a large additive bias satisfies the phase-2 condition
// at time 0).
package phase

import (
	"math"

	"repro/internal/core"
	"repro/internal/u128"
)

// Count is the number of analysis phases.
const Count = 5

// View is the read-only simulator surface the tracker needs. It is
// satisfied by *core.Simulator.
type View interface {
	// N returns the population size.
	N() int64
	// K returns the number of opinions.
	K() int
	// Undecided returns the current undecided count.
	Undecided() int64
	// Supports appends the per-opinion supports to dst.
	Supports(dst []int64) []int64
	// Interactions returns the interaction clock.
	Interactions() u128.U128
}

// Times records when each phase ended, in interactions. The clock is a
// 128-bit saturating counter (n² exceeds int64 once n > ⌊√MaxInt64⌋), so
// "not ended" is carried by the Ended flags rather than a -1 sentinel.
type Times struct {
	// End[p] is the interaction clock at which phase p+1 ended. It is
	// meaningful only when Ended[p] is true.
	End [Count]u128.U128
	// Ended[p] reports whether phase p+1 has ended.
	Ended [Count]bool
	// LeaderAtT2 is the opinion that was the unique significant opinion
	// when phase 2 ended, or -1. The paper shows the eventual winner is
	// fixed from this moment on.
	LeaderAtT2 int
}

// NewTimes returns a Times with no phase ended.
func NewTimes() Times {
	return Times{LeaderAtT2: -1}
}

// Reached reports whether phase p (1-based) has ended.
func (t Times) Reached(p int) bool {
	return p >= 1 && p <= Count && t.Ended[p-1]
}

// Duration returns the length of phase p (1-based) in interactions:
// End[p] − End[p−1], with phase 1 starting at 0. The second result is false
// if the phase has not ended.
func (t Times) Duration(p int) (u128.U128, bool) {
	if !t.Reached(p) {
		return u128.U128{}, false
	}
	start := u128.U128{}
	if p > 1 {
		start = t.End[p-2]
	}
	return t.End[p-1].Sub(start), true
}

// DefaultCheckInterval returns the default number of observations between
// full evaluations of the O(k) phase end conditions for a run over n agents:
// one check per ~n/64 productive events, capped at 256. This keeps tracking
// overhead sublinear in the run length while still resolving phase end times
// to well under 1% of any phase bound.
func DefaultCheckInterval(n int64) int {
	c := int(n/64) + 1
	if c > 256 {
		c = 256
	}
	return c
}

// CheckIntervalFor returns the default tracker check interval for a run
// over n agents under the given kernel: every observation for a batched
// kernel (each observation already covers a whole window of events, so
// skipping any would cost window-level resolution), DefaultCheckInterval(n)
// for the per-event exact kernel.
func CheckIntervalFor(n int64, kern core.Kernel) int {
	if kern.Batched() {
		return 1
	}
	return DefaultCheckInterval(n)
}

// Option configures a Tracker.
type Option func(*Tracker)

// WithAlpha sets the significance constant α in the phase-2 threshold
// α√(n ln n). The default is 1.
func WithAlpha(alpha float64) Option {
	return func(tr *Tracker) { tr.alpha, tr.thrN = alpha, -1 }
}

// WithCheckInterval makes the tracker evaluate the (O(k)) end conditions
// only every c observations, trading timing resolution for speed on large
// runs. The default is 1 (every observation).
func WithCheckInterval(c int) Option {
	return func(tr *Tracker) {
		if c > 0 {
			tr.every = c
		}
	}
}

// Tracker detects phase ends online. Feed it with Observe after every
// productive event (and once before the run to classify the initial
// configuration). The zero value is not usable; construct with NewTracker.
type Tracker struct {
	alpha float64
	every int
	seen  int
	next  int // 0-based index of the next phase to detect
	times Times
	buf   []int64

	// thr caches the phase-2 threshold for population thrN (-1: none).
	thr  float64
	thrN int64
}

// NewTracker returns a tracker for a run over n agents and k opinions.
func NewTracker(opts ...Option) *Tracker {
	tr := &Tracker{
		alpha: 1,
		every: 1,
		times: NewTimes(),
		thrN:  -1,
	}
	for _, opt := range opts {
		opt(tr)
	}
	return tr
}

// Times returns the phase end times recorded so far.
func (tr *Tracker) Times() Times { return tr.times }

// Reset rewinds the tracker to the freshly constructed state, keeping the
// supports scratch buffer, so trial engines can reuse one tracker across
// many runs without allocating. Options given here are re-applied after the
// rewind; the existing configuration (alpha, check interval) is kept when
// none are given. A Reset tracker is indistinguishable from a new one with
// the same options.
func (tr *Tracker) Reset(opts ...Option) {
	tr.seen = 0
	tr.next = 0
	tr.times = NewTimes()
	for _, opt := range opts {
		opt(tr)
	}
}

// Done reports whether all five phases have ended.
func (tr *Tracker) Done() bool { return tr.next >= Count }

// Observe inspects the current configuration and records any phase ends.
// Calls between check intervals are O(1).
func (tr *Tracker) Observe(v View) {
	if tr.next >= Count {
		return
	}
	tr.seen++
	if tr.every > 1 && tr.seen%tr.every != 1 && tr.seen != 1 {
		return
	}
	tr.check(v)
}

// Watch implements core.Watcher, so a *Tracker can be passed directly to
// core.Simulator.RunWatched: the phase-tracking path then runs without any
// observer closure and allocates nothing after construction. The event is
// ignored — the tracker inspects the simulator state.
func (tr *Tracker) Watch(s *core.Simulator, _ core.Event) { tr.Observe(s) }

// ObserveNow evaluates the end conditions immediately, bypassing the check
// interval. Use it to classify the initial configuration and the final one,
// which interval skipping could otherwise miss.
func (tr *Tracker) ObserveNow(v View) {
	if tr.next >= Count {
		return
	}
	tr.seen++
	tr.check(v)
}

func (tr *Tracker) check(v View) {
	tr.buf = v.Supports(tr.buf[:0])
	n := v.N()
	u := v.Undecided()
	t := v.Interactions()

	maxIdx, first, second := topTwo(tr.buf)
	for tr.next < Count {
		if !tr.condition(tr.next, n, u, first, second) {
			return
		}
		tr.times.End[tr.next] = t
		tr.times.Ended[tr.next] = true
		if tr.next == 1 { // phase 2 just ended: record the unique leader
			tr.times.LeaderAtT2 = maxIdx
		}
		tr.next++
	}
}

// threshold returns the phase-2 threshold α√(n ln n) for a run over n
// agents. It is computed once per (n, α) instead of taking a square root
// and a logarithm on every check, which under the windowed kernels is every
// window; WithAlpha drops the cached value, so a Reset that changes α
// recomputes it.
func (tr *Tracker) threshold(n int64) float64 {
	if n != tr.thrN {
		tr.thr = tr.alpha * math.Sqrt(float64(n)*math.Log(float64(n)))
		tr.thrN = n
	}
	return tr.thr
}

// condition evaluates the end condition of 0-based phase p.
func (tr *Tracker) condition(p int, n, u, first, second int64) bool {
	switch p {
	case 0:
		return 2*u >= n-first
	case 1:
		return float64(first-second) >= tr.threshold(n)
	case 2:
		return first >= 2*second
	case 3:
		return 3*first >= 2*n
	case 4:
		return first == n
	default:
		return false
	}
}

// topTwo returns the index of the maximum and the two largest values.
func topTwo(xs []int64) (maxIdx int, first, second int64) {
	for i, x := range xs {
		switch {
		case x > first:
			first, second = x, first
			maxIdx = i
		case x > second:
			second = x
		}
	}
	return maxIdx, first, second
}
