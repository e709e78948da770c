package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiment"
	"repro/internal/rng"
	"repro/internal/u128"
)

// The sharded-fleet workload: cmd/sweep's shard spec (classic, auto,
// tracked) with a small interaction budget, so that the coordinator, the
// wire codec, the wave barrier and the per-wave checkpoint carry the cost.
const (
	shardedN        = 1e6
	shardedBudget   = 1000
	shardedShards   = 2
	shardedSessions = 5
	// shardedProbes extra one-wave sessions only add set-up samples:
	// launching two processes varies by a factor of two from one launch to
	// the next, so setup_s needs more samples than there are sessions.
	shardedProbes = 10
	shardedWave   = dist.DefaultWave
	// maxTrialsPerSecond bounds a session's fold rate, ten times what two
	// workers reach on a 2-core Xeon.
	maxTrialsPerSecond = 100_000
)

// fleetState is the coordinator's checkpointed fold: counts, the
// interaction total, and a running fingerprint of every folded result.
type fleetState struct {
	Trials         int    `json:"trials"`
	Failed         int    `json:"failed"`
	InteractionsHi uint64 `json:"interactions_hi"`
	InteractionsLo uint64 `json:"interactions_lo"`
	Fingerprint    uint64 `json:"fingerprint"`
}

// fnvMix folds values into an FNV-1a hash, byte by byte. The hash state is
// one word, so the fold state checkpoints as plain JSON.
func fnvMix(h uint64, vals ...uint64) uint64 {
	for _, v := range vals {
		for b := 0; b < 8; b++ {
			h ^= (v >> (8 * b)) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

const fnvOffset = 14695981039346656037

// fold checks one budgeted trial and adds it to the state: a trial must
// stop at consensus within its budget or exactly at its budget.
func (s *fleetState) fold(i int, r experiment.ShardResult) error {
	s.Trials++
	t := r.Interactions()
	budget := u128.From64(shardedBudget)
	switch {
	case r.Consensus() && t.Leq(budget):
	case r.Outcome == core.OutcomeBudget.String() && t == budget:
	default:
		s.Failed++
		return fmt.Errorf("trial %d: outcome %s after %v interactions, budget %d", i, r.Outcome, t, shardedBudget)
	}
	sum := u128.U128{Hi: s.InteractionsHi, Lo: s.InteractionsLo}.Add(t)
	s.InteractionsHi, s.InteractionsLo = sum.Hi, sum.Lo
	outcome := uint64(0)
	for _, c := range r.Outcome {
		outcome = outcome*131 + uint64(c)
	}
	s.Fingerprint = fnvMix(s.Fingerprint, uint64(i), t.Hi, t.Lo, outcome, uint64(int64(r.Winner)))
	for p := range r.PhaseEnded {
		ended := uint64(0)
		if r.PhaseEnded[p] {
			ended = 1
		}
		s.Fingerprint = fnvMix(s.Fingerprint, ended, r.PhaseEndsHi[p], r.PhaseEndsLo[p])
	}
	return nil
}

// probe is the benchmark's Launcher: it launches workers through an inner
// launcher and wraps their streams to count bytes and lines, to time each
// launch and handshake, and to see when each wave is dispatched.
type probe struct {
	inner             dist.Launcher
	bytesIn, bytesOut atomic.Int64
	linesIn           atomic.Int64

	mu         sync.Mutex
	launches   []*launchRec
	dispatched map[int]time.Time // wave lo → first dispatch

	onLaunch func(start, end time.Time) // traced runs record a span
}

type launchRec struct {
	start, end time.Time
	firstRead  atomic.Int64 // UnixNano of the worker's first line
}

// Launch implements dist.Launcher.
func (p *probe) Launch(shard, shards int) (*dist.Conn, error) {
	start := time.Now()
	c, err := p.inner.Launch(shard, shards)
	end := time.Now()
	if err != nil {
		return nil, err
	}
	if p.onLaunch != nil {
		p.onLaunch(start, end)
	}
	rec := &launchRec{start: start, end: end}
	p.mu.Lock()
	p.launches = append(p.launches, rec)
	p.mu.Unlock()
	return &dist.Conn{W: &probeW{c.W, p}, R: &probeR{c.R, p, rec}, Wait: c.Wait, Kill: c.Kill}, nil
}

// handshakeDone returns when the last launched worker's first line came
// in, or false if one never spoke.
func (p *probe) handshakeDone() (time.Time, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var last int64
	for _, l := range p.launches {
		fr := l.firstRead.Load()
		if fr == 0 {
			return time.Time{}, false
		}
		last = max(last, fr)
	}
	return time.Unix(0, last), len(p.launches) > 0
}

// dispatchedAt returns and forgets when the wave starting at lo was
// first sent.
func (p *probe) dispatchedAt(lo int, forget bool) (time.Time, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.dispatched[lo]
	if forget {
		delete(p.dispatched, lo)
	}
	return t, ok
}

type probeW struct {
	w io.WriteCloser
	p *probe
}

var waveTag = []byte(`"type":"wave"`)

// Write sees one protocol line per call (the coordinator writes whole
// lines); a wave line's lo is noted with its send time.
func (w *probeW) Write(b []byte) (int, error) {
	now := time.Now()
	n, err := w.w.Write(b)
	w.p.bytesOut.Add(int64(n))
	if bytes.Contains(b, waveTag) {
		var m struct {
			Lo int `json:"lo"`
		}
		if json.Unmarshal(b, &m) == nil {
			w.p.mu.Lock()
			if _, ok := w.p.dispatched[m.Lo]; !ok {
				w.p.dispatched[m.Lo] = now
			}
			w.p.mu.Unlock()
		}
	}
	return n, err
}

func (w *probeW) Close() error { return w.w.Close() }

type probeR struct {
	r   io.ReadCloser
	p   *probe
	rec *launchRec
}

func (r *probeR) Read(b []byte) (int, error) {
	n, err := r.r.Read(b)
	if n > 0 {
		r.rec.firstRead.CompareAndSwap(0, time.Now().UnixNano())
		r.p.bytesIn.Add(int64(n))
		r.p.linesIn.Add(int64(bytes.Count(b[:n], []byte{'\n'})))
	}
	return n, err
}

func (r *probeR) Close() error { return r.r.Close() }

// timedState is the fold state as dist.Run checkpoints it: every
// Snapshot call marks a wave boundary.
type timedState struct {
	dist.JSONState
	snaps  []time.Time
	snapNs int64 // duration of the latest Snapshot
	onSnap func(start, end time.Time)
}

func (s *timedState) Snapshot() ([]byte, error) {
	start := time.Now()
	data, err := s.JSONState.Snapshot()
	end := time.Now()
	s.snaps = append(s.snaps, end)
	s.snapNs = int64(end.Sub(start))
	if s.onSnap != nil {
		s.onSnap(start, end)
	}
	return data, err
}

// session is one dist.Run of the workload, from spec to the last fold.
type session struct {
	seed       uint64
	maxTrials  int
	setup      time.Duration // spec build and validation, launch, handshake
	window     time.Duration // handshake end to last fold
	state      fleetState
	res        dist.Result
	trialMs    []float64
	waveMs     []float64
	probe      *probe
	ckptBytes  int64
	allocBytes uint64
	// Traced sessions only.
	decodeNs, snapNs, barrierNs int64
	snaps                       int
	workers                     []workerTotals
}

// sessionSummary is one session as the result file records it.
type sessionSummary struct {
	Seed    uint64  `json:"seed"`
	Trials  int     `json:"trials"`
	WindowS float64 `json:"window_s"`
	SetupS  float64 `json:"setup_s"`
}

// fleet runs the sharded-fleet sessions.
type fleet struct {
	res  *result
	exe  string
	cfg  *conf.Config
	kern core.Kernel
	tr   *tracer // nil when untraced
	// sessions numbers the checkpoint files: a traced replay must not
	// resume its untraced twin's finished checkpoint.
	sessions int
}

// run performs one session. A zero d runs exactly maxTrials trials.
func (f *fleet) run(s *session, d time.Duration, tmp string) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	setupStart := time.Now()
	var root, runSpan int32 = -1, -1
	t := f.tr
	if t != nil {
		root = t.begin("bench.session", -1, -1)
		defer func() { t.end(root) }()
	}
	specSpan := int32(-1)
	if t != nil {
		specSpan = t.begin("experiment.spec", root, -1)
	}
	spec, err := experiment.NewShardSpec(f.cfg, core.Variant{}, f.kern, u128.From64(shardedBudget), 0, true).Encode()
	if err == nil {
		err = f.cfg.Validate()
	}
	if t != nil {
		t.end(specSpan)
	}
	if err != nil {
		f.res.Failed++
		f.res.fail("spec: %v", err)
		return
	}
	args := []string{"-work", tmp}
	if t != nil {
		args = append(args, "-trace", "1")
	}
	p := &probe{
		inner: &dist.ExecLauncher{
			Path: f.exe,
			Args: func(shard, shards int) []string {
				return append([]string{"-shard-worker", dist.ShardArg(shard, shards)}, args...)
			},
			CoreBudget: shardedShards,
		},
		dispatched: map[int]time.Time{},
	}
	s.probe = p
	st := &timedState{JSONState: dist.JSONState{V: &s.state}}
	s.state.Fingerprint = fnvOffset
	var lastWaveEnd time.Time
	if t != nil {
		p.onLaunch = func(a, b time.Time) { t.add("dist.launch", runSpan, -1, t.at(a), t.at(b)) }
		st.onSnap = func(a, b time.Time) {
			t.add("dist.snapshot", runSpan, -1, t.at(a), t.at(b))
			s.snapNs += int64(b.Sub(a))
			s.snaps++
		}
	}
	sink := func(i int, data []byte) error {
		start := time.Now()
		var r experiment.ShardResult
		if err := json.Unmarshal(data, &r); err != nil {
			return err
		}
		if err := s.state.fold(i, r); err != nil {
			f.res.fail("seed %d %v", s.seed, err)
		}
		lo := i - i%shardedWave
		if at, ok := p.dispatchedAt(lo, i == lo+shardedWave-1); ok {
			s.trialMs = append(s.trialMs, float64(time.Since(at))/1e6)
		}
		if t != nil {
			end := time.Now()
			t.add("experiment.decode", runSpan, int64(i), t.at(start), t.at(end))
			s.decodeNs += int64(end.Sub(start))
			if i%shardedWave == 0 && !lastWaveEnd.IsZero() {
				s.barrierNs += int64(start.Sub(lastWaveEnd)) - st.snapNs
			}
			if (i+1)%shardedWave == 0 {
				lastWaveEnd = end
			}
		}
		return nil
	}
	f.sessions++
	ckpt := filepath.Join(tmp, fmt.Sprintf("session-%d.ckpt", f.sessions))
	maxTrials := s.maxTrials
	stop := func() bool { return false }
	if d > 0 {
		// dist.Run lays out the wave schedule up to MaxTrials in advance,
		// so the cap is a generous bound on what d can fold, not infinity.
		maxTrials = int(d.Seconds()*maxTrialsPerSecond) + shardedWave
		stop = func() bool {
			done, ok := p.handshakeDone()
			return ok && s.state.Trials%shardedWave == 0 && time.Since(done) >= d
		}
	}
	runStart := time.Now()
	if t != nil {
		runSpan = t.begin("dist.run", root, -1)
	}
	s.res, err = dist.Run(dist.Options{
		Shards:         shardedShards,
		MaxTrials:      maxTrials,
		Wave:           shardedWave,
		Seed:           s.seed,
		Spec:           spec,
		Launcher:       p,
		CheckpointPath: ckpt,
		Policy:         "perfbench",
		WorkerTimeout:  time.Minute,
	}, sink, stop, st)
	if t != nil {
		t.end(runSpan)
		for _, l := range p.launches {
			if fr := l.firstRead.Load(); fr != 0 {
				t.add("dist.handshake", runSpan, -1, t.at(l.end), t.at(time.Unix(0, fr)))
			}
		}
	}
	runtime.ReadMemStats(&after)
	s.allocBytes = after.TotalAlloc - before.TotalAlloc
	if err != nil {
		f.res.Failed++
		f.res.fail("seed %d: dist.Run: %v", s.seed, err)
		return
	}
	if fi, err := os.Stat(ckpt); err == nil {
		s.ckptBytes = fi.Size()
	}
	done, ok := p.handshakeDone()
	if !ok || len(st.snaps) == 0 {
		f.res.Failed++
		f.res.fail("seed %d: no worker completed a handshake and a wave", s.seed)
		return
	}
	s.setup = runStart.Sub(setupStart) + done.Sub(runStart)
	s.window = st.snaps[len(st.snaps)-1].Sub(done)
	for j := 1; j < len(st.snaps); j++ {
		s.waveMs = append(s.waveMs, float64(st.snaps[j].Sub(st.snaps[j-1]))/1e6)
	}
}

// reference folds the same trials in process with experiment.Stream and
// checks that the sharded fold matches it bit for bit. It runs on every
// core and returns the summed time inside the trial callbacks: the
// compute the workers had to do.
func (f *fleet) reference(s *session) time.Duration {
	ref := fleetState{Fingerprint: fnvOffset}
	budget := u128.From64(shardedBudget)
	var compute atomic.Int64
	experiment.Stream(s.state.Trials, runtime.GOMAXPROCS(0), s.seed, func(_ int, src *rng.Source, a *experiment.Arena) experiment.ShardResult {
		start := time.Now()
		defer func() { compute.Add(int64(time.Since(start))) }()
		run, err := experiment.RunTracked(a, f.cfg, src, budget, 0, f.kern)
		if err != nil {
			return experiment.ShardResult{Outcome: err.Error()}
		}
		return shardResultOf(run)
	}, func(i int, r experiment.ShardResult) {
		_ = ref.fold(i, r) // failures were counted on the sharded side
	})
	if ref != s.state {
		f.res.Failed++
		f.res.fail("seed %d: sharded fold %+v differs from the in-process fold %+v", s.seed, s.state, ref)
	}
	return time.Duration(compute.Load())
}

// shardResultOf is the wire form of a tracked run, as the shard workers
// build it.
func shardResultOf(run experiment.USDRun) experiment.ShardResult {
	r := experiment.ShardResult{
		InteractionsHi: run.Result.Interactions.Hi,
		InteractionsLo: run.Result.Interactions.Lo,
		Winner:         run.Result.Winner,
		InitialLeader:  run.InitialLeader,
		Outcome:        run.Result.Outcome.String(),
		PhaseEnded:     append([]bool(nil), run.Phases.Ended[:]...),
		LeaderAtT2:     run.Phases.LeaderAtT2,
	}
	for _, e := range run.Phases.End {
		r.PhaseEndsHi = append(r.PhaseEndsHi, e.Hi)
		r.PhaseEndsLo = append(r.PhaseEndsLo, e.Lo)
	}
	return r
}

func runShardedFleet(seed uint64, d time.Duration, traced bool, work string) *result {
	res := newResult("sharded-fleet", traced, d.Seconds())
	exe, err := os.Executable()
	cfg, err2 := conf.Uniform(shardedN, opinions, 0)
	if err == nil {
		err = err2
	}
	tmp := ""
	if err == nil {
		tmp, err = os.MkdirTemp(work, "sharded-")
	}
	if err != nil {
		res.Failed++
		res.fail("%v", err)
		return res
	}
	defer os.RemoveAll(tmp)
	f := &fleet{res: res, exe: exe, cfg: cfg, kern: core.KernelAuto(0)}
	sessions := make([]*session, shardedSessions)
	per := d / shardedSessions
	if traced {
		per = d / 2 / shardedSessions
	}
	for i := range sessions {
		sessions[i] = &session{seed: rng.Derive(seed, uint64(i))}
		f.run(sessions[i], per, tmp)
	}
	// HeapSys never shrinks: read now, it is the sessions' peak heap,
	// before the in-process references below allocate their own.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	probes := make([]*session, shardedProbes)
	for i := range probes {
		probes[i] = &session{seed: rng.Derive(seed, uint64(shardedSessions+i)), maxTrials: shardedWave}
		f.run(probes[i], 0, tmp)
	}
	refs := make([]time.Duration, len(sessions))
	var setups []float64
	for i, s := range append(sessions, probes...) {
		ref := f.reference(s)
		if i < len(refs) {
			refs[i] = ref
		}
		res.Attempted += s.state.Trials
		res.Failed += s.state.Failed
		setups = append(setups, s.setup.Seconds())
		res.Sessions = append(res.Sessions, sessionSummary{
			Seed: s.seed, Trials: s.state.Trials, WindowS: s.window.Seconds(), SetupS: s.setup.Seconds(),
		})
	}
	if !res.ok() {
		return res
	}
	if traced {
		f.traced(sessions, refs, tmp)
		return res
	}

	var trials int
	var window time.Duration
	var interactions u128.U128
	var alloc uint64
	var trialMs, waveMs []float64
	for _, s := range sessions {
		trials += s.state.Trials
		window += s.window
		interactions = interactions.Add(u128.U128{Hi: s.state.InteractionsHi, Lo: s.state.InteractionsLo})
		alloc += s.allocBytes
		trialMs = append(trialMs, s.trialMs...)
		waveMs = append(waveMs, s.waveMs...)
	}
	sort.Float64s(setups)
	res.set("setup_s", median(setups))
	res.set("trials_per_s", float64(trials)/window.Seconds())
	res.set("ns_per_interaction", nsPer(int64(window), interactions))
	res.setTail("trial_ms", trialMs)
	res.setTail("wave_ms", waveMs)
	res.set("alloc_b_per_trial", float64(alloc)/float64(trials))
	res.set("peak_heap_mb", float64(ms.HeapSys)/(1<<20))
	return res
}

// traced repeats each untraced session traced, over exactly its trials,
// and reports the coordinator's layer accounting, the wire and barrier
// figures, and the workers' per-trial layer times.
func (f *fleet) traced(untraced []*session, refs []time.Duration, tmp string) {
	res := f.res
	f.tr = newTracer()
	res.tracer = f.tr
	var plainWall, tracedWall time.Duration
	var refTotal time.Duration
	var sum session
	var trials int
	var acc accounting
	acc.SelfNs = map[string]int64{}
	var launchMs, handshakeMs []float64
	var in, out, lines int64
	var w workerTotals
	for i, u := range untraced {
		s := &session{seed: u.seed, maxTrials: u.state.Trials}
		first := len(f.tr.spans)
		f.run(s, 0, tmp)
		s.workers = readWorkerTotals(tmp, res)
		if !res.ok() {
			return
		}
		if s.state != u.state {
			res.Failed++
			res.fail("seed %d: traced fold %+v differs from the untraced fold %+v", s.seed, s.state, u.state)
			return
		}
		a, err := f.tr.account(int32(first))
		if err != nil {
			res.fail("%v", err)
		}
		acc.WallNs += a.WallNs
		acc.ResidualNs += a.ResidualNs
		for k, v := range a.SelfNs {
			acc.SelfNs[k] += v
		}
		plainWall += u.window
		tracedWall += s.window
		refTotal += refs[i]
		trials += s.state.Trials
		sum.decodeNs += s.decodeNs
		sum.snapNs += s.snapNs
		sum.snaps += s.snaps
		sum.barrierNs += s.barrierNs
		sum.res.Waves += s.res.Waves
		sum.res.Relaunches += s.res.Relaunches
		sum.res.Requeued += s.res.Requeued
		sum.ckptBytes = max(sum.ckptBytes, s.ckptBytes)
		in += s.probe.bytesIn.Load()
		out += s.probe.bytesOut.Load()
		lines += s.probe.linesIn.Load()
		for _, l := range s.probe.launches {
			launchMs = append(launchMs, float64(l.end.Sub(l.start))/1e6)
			handshakeMs = append(handshakeMs, float64(time.Unix(0, l.firstRead.Load()).Sub(l.end))/1e6)
		}
		for _, wt := range s.workers {
			w.add(wt)
		}
	}
	res.Accounting = &acc
	setShares(res, acc)
	res.set("trace.overhead_frac", float64(tracedWall)/float64(plainWall)-1)
	nt := float64(trials)
	sort.Float64s(launchMs)
	sort.Float64s(handshakeMs)
	res.set("dist.launch_ms", median(launchMs))
	res.set("dist.handshake_ms", median(handshakeMs))
	res.set("dist.bytes_in_per_trial", float64(in)/nt)
	res.set("dist.bytes_out_per_trial", float64(out)/nt)
	res.set("dist.lines_in_per_trial", float64(lines)/nt)
	res.set("dist.decode_us_per_trial", float64(sum.decodeNs)/1e3/nt)
	res.set("dist.snapshot_us_per_wave", float64(sum.snapNs)/1e3/float64(max(sum.snaps, 1)))
	res.set("dist.checkpoint_bytes", float64(sum.ckptBytes))
	res.set("dist.waves", float64(sum.res.Waves))
	res.set("dist.relaunches", float64(sum.res.Relaunches))
	res.set("dist.requeued", float64(sum.res.Requeued))
	res.set("dist.worker_busy_frac", float64(refTotal)/(float64(plainWall)*shardedShards))
	res.set("dist.barrier_wait_frac", float64(sum.barrierNs)/float64(tracedWall))
	w.report(res)
}
