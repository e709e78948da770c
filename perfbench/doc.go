// Command perfbench is the repository's benchmark of the consensus
// engine. It lives in its own module beside the repo's sources (its
// go.mod replaces module repro with ..), so `go test ./...` at the root
// does not build it; run.sh builds it from the checkout and runs it:
//
//	bash perfbench/run.sh --workload small-n-fleet --seed 1 --seconds 20 --trace 0
//
// One run measures one workload (or, with --workload all, each in turn)
// for --seconds, checks the outputs, prints every metric by name and unit,
// and ends with one JSON line {correct, attempted, failed, metrics}. With
// --trace 0 the metrics are the end-to-end ones BENCHMARK.json registers;
// with --trace 1 they are the per-layer ones. A run exits non-zero when any
// check fails. The full result (with the environment: seed, commit, Go
// version, nproc, GOMAXPROCS, CPU model; and each tail's percentile and
// sample count) goes to <build>/results, a traced run's spans to a
// .spans.jsonl file beside it. `perfbench -spread file` prints the median
// and quartile spread of each metric over a file of result lines.
//
// # Seeds
//
// Every trial seed derives from --seed, and the engine receives only the
// generated configurations and seeds. A claim made on one seed must also
// hold on seed 2.
//
// # Workloads
//
// All three run the classic variant from a uniform unbiased start under
// the auto kernel at k = 32, closed loop: the next trial starts when a
// worker is free.
//
// small-n-fleet streams full-consensus trials at n = 10³ and n = 10⁴
// through experiment.Stream at parallelism 1. Each round streams 16 trials
// at 10³ and then 8 at 10⁴, so a round spends about as long in each cell
// and the median trial falls inside the 10³ mode rather than in the gap
// between the two. Every kernel window here is categorical (under 16·k
// events): about 60 events per window, where the O(k) cumulative build
// competes with the per-event draws, plus ~800 exact steps per trial. The
// arena is reset once per trial. It loads core's categorical path, rng
// Uint128n and GeometricU128, and the engine's per-trial reset and fold;
// it bypasses the chained path and dist.
//
// large-n streams full-consensus trials at n = 10⁸, two per round. 98% of
// its windows are chained binomials of ~1.2M events, which load rng
// Binomial, Multinomial and NegativeBinomialU128 and fenwick SetAll; the
// categorical path, the per-trial overhead and dist are negligible.
//
// sharded-fleet runs cmd/sweep's shard spec (classic, auto, tracked) at
// n = 10⁶ with a budget of 1000 interactions per trial through dist.Run:
// two self-exec worker processes (experiment.ServeShard at worker-local
// parallelism 1, one core each), the default wave of 16 trials, and a
// checkpoint after every wave into a temporary directory of the build
// directory. A run is five sessions, each with its own launch and
// handshake, plus ten one-wave sessions that only add set-up samples. It
// loads dist (launch, wire frames, wave barrier, checkpoint), the shard
// result codec and the tracked-trial path with the phase tracker; the
// in-process workloads bypass all of it. The traced run shows where its
// time goes: each worker spends about 0.3 ms per trial (kernel ~0.22 ms,
// tracker ~0.05 ms, result encoding and write ~0.02 ms), so the workers'
// compute sets the pace and the coordinator waits at the wave barrier for
// over 90% of its wall; its own work is ~11 µs of decoding per trial and a
// snapshot and checkpoint write per wave. Every fold is checked against an
// in-process experiment.Stream fold of the same spec and seeds.
//
// Measured on a 2-core Intel Xeon VM with Go 1.24 (medians of ten 20 s
// runs):
//
//	workload       trials/s  trial p50  wave p50  setup    ns/interaction
//	small-n-fleet  115       6.1 ms     215 ms    2.8 µs   28
//	large-n        13.9      72 ms      144 ms    1.6 µs   0.0021
//	sharded-fleet  5980      4.4 ms     2.6 ms    3.7 ms   167
//
// On that VM identical runs spread by 4–25% run to run (interquartile
// range over median) in throughput and latency, and pinning a run to one
// core does not narrow it: the host's load moves them, in phases of
// minutes. Longer runs did not narrow it either, so runs last 20 s and the
// timing bounds in BENCHMARK.json are 0.25.
//
// # Metrics
//
// setup_s is the median of several set-ups. For the in-process
// workloads a set-up is configuration validation and arena construction,
// timed in 21 batches of 100, each from a collected heap, after 100 ms of
// untimed ones. For sharded-fleet it is spec encoding and validation plus
// worker launch through the last handshake, once per session (15
// sessions). trial_ms is a trial's latency: in process, from the previous
// fold to its fold; sharded, from the dispatch of its wave to its fold.
// wave_ms is the time between wave boundaries: in process, one round (one
// experiment.Stream call per cell); sharded, consecutive State.Snapshot
// calls. Each tail is the highest percentile with at least 10 samples
// beyond it, capped at p95. ns_per_interaction is wall time over the
// exact 128-bit interaction total. alloc_b_per_trial and peak_heap_mb are
// the benchmark process's allocation per trial and its heap footprint
// (HeapSys, which never shrinks). failed_frac is printed and carried as
// the result's failed/attempted counts; it is not registered because it
// is zero on a healthy run.
//
// # Traced runs
//
// A traced run first runs the workload untraced for half of --seconds,
// then repeats exactly the same trials traced; trace.overhead_frac is the
// ratio of the two walls minus one. Spans are recorded by this program
// around its own calls into each module's public functions (the engine
// has no tracing of its own): experiment.Stream, the trial callbacks,
// Arena.Simulator, Simulator.RunObserved and the fold in process;
// dist.Run, Launcher.Launch, the handshake, the sink's decode and
// State.Snapshot on the coordinator. Each span carries its name, start,
// end, parent and the trial index as the shared id. The run's wall is
// split among the layers by giving each instant to the deepest open span,
// so the layer self times (<layer>.self_frac) and the residual
// (trace.unexplained_frac) sum to the wall exactly; the run checks it.
//
// Inside core the engine cannot be spanned from outside, so an observer
// counts windows by sampling path and exact steps, and the rng samplers
// and the fenwick tree are timed standalone at parameters sampled from
// the observed steps. core.modelled_frac is those counts times those unit
// costs over the measured kernel time: a model, not a measurement; at
// small n it shows how much of the kernel the per-window O(k) build takes.
// Traced shard workers time their arena reset, kernel, phase tracker and
// result encoding and report the totals when halted.
package main
