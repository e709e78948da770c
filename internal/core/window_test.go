package core

import (
	"math/bits"
	"sort"
	"testing"

	"repro/internal/conf"
	"repro/internal/rng"
	"repro/internal/u128"
)

// BenchmarkWindow measures one auto-kernel window of m productive events on
// each sampling path — sampling, feasibility, span draw and apply — from a
// mid-run configuration (n = 10⁸, half the agents undecided) that the
// benchmark's windows barely move. Comparing tree and categorical at the
// same (k, m) locates autoTreeDivisor's crossover; the tree rows at fixed m
// across k show that a tree window has no O(k) pass.
func BenchmarkWindow(b *testing.B) {
	const n = 100_000_000
	for _, path := range []string{"tree", "categorical", "chained"} {
		for _, k := range []int{8, 32, 128} {
			for _, m := range []int64{2, 4, 8, 16, 32, 64, 128, 256, 512} {
				b.Run(path+"/"+benchName("k", k)+"/"+benchName("m", int(m)), func(b *testing.B) {
					c, err := conf.Uniform(n, k, n/2)
					if err != nil {
						b.Fatal(err)
					}
					src := rng.New(1)
					s, err := New(c, src, WithKernel(KernelAuto(0)))
					if err != nil {
						b.Fatal(err)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if i%4096 == 4095 {
							// Keep the configuration near its start.
							b.StopTimer()
							if err := s.Reset(c, src); err != nil {
								b.Fatal(err)
							}
							b.StartTimer()
						}
						w := s.productiveWeight()
						switch path {
						case "tree":
							s.batchStepTree(w, m, NoBudget)
						case "categorical":
							s.batchStep(w, m, NoBudget, true)
						default:
							s.batchStep(w, m, NoBudget, false)
						}
					}
				})
			}
		}
	}
}

// randomConfig returns a configuration over n agents and k opinions with
// irregular supports — some opinions empty — and a random undecided share,
// drawn from src.
func randomConfig(t *testing.T, src *rng.Source, n int64, k int) *conf.Config {
	t.Helper()
	undecided := int64(src.Float64() * 0.6 * float64(n))
	weights := make([]float64, k)
	var total float64
	for j := range weights {
		if k > 1 && src.Float64() < 0.2 {
			continue // an empty opinion
		}
		weights[j] = src.Float64() + 0.05
		total += weights[j]
	}
	if total == 0 {
		weights[0], total = 1, 1
	}
	support := make([]int64, k)
	left := n - undecided
	for j, wt := range weights {
		support[j] = int64(wt / total * float64(n-undecided))
		left -= support[j]
	}
	for j := range support {
		if weights[j] > 0 { // the rounding remainder goes to a live opinion
			support[j] += left
			break
		}
	}
	c, err := conf.FromSupport(support, undecided)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// withStubborn installs stubborn floors of up to a tenth of each support.
func withStubborn(c *conf.Config, src *rng.Source) {
	c.Stubborn = make([]int64, len(c.Support))
	for j, x := range c.Support {
		c.Stubborn[j] = int64(src.Float64() * 0.1 * float64(x))
	}
}

func TestTreeWindowMatchesCategoricalStream(t *testing.T) {
	// The tree sampler must resolve every draw to the category the
	// cumulative search returns, so that from one frozen state and one
	// source both paths produce identical window counts and leave the
	// source at the same position. n = 10¹⁰ puts W and u·D past 2⁶⁴, so the
	// adopt threshold's division runs with a non-zero high word.
	gen := rng.New(2024)
	wide := 0
	for _, variant := range []string{"classic", "stubborn"} {
		for _, n := range []int64{1_000, 1_000_000, 10_000_000_000} {
			for _, k := range []int{1, 2, 3, 8, 32, 128} {
				for rep := 0; rep < 3; rep++ {
					c := randomConfig(t, gen, n, k)
					var opts []Option
					if variant == "stubborn" {
						withStubborn(c, gen)
						opts = append(opts, WithDynamics(StubbornAgents))
					}
					seed := gen.Uint64()
					tree := newSim(t, c, seed, opts...)
					cat := newSim(t, c, seed, opts...)
					w := tree.productiveWeight()
					if w.IsZero() {
						continue
					}
					d := tree.n - tree.u
					if w.Hi != 0 && u128.Mul64(uint64(tree.u), uint64(d)).Hi != 0 {
						wide++
					}
					tree.ensureBatchScratch(k)
					cat.ensureBatchScratch(k)
					for _, m := range []int64{1, 2, 7, int64(k) / 2, int64(k), 3 * int64(k), 300} {
						if m < 1 {
							continue
						}
						adoptsTree, touched := tree.sampleWindowTree(w, m)
						got := append([]int64(nil), tree.batchCounts...)
						tree.clearTouched(touched)
						adoptsCat := cat.sampleWindowCategorical(cat.tree.View(), w, m, d)
						if adoptsTree != adoptsCat {
							t.Fatalf("%s n=%d k=%d m=%d: adopts tree %d, categorical %d", variant, n, k, m, adoptsTree, adoptsCat)
						}
						for i, want := range cat.batchCounts {
							if got[i] != want {
								t.Fatalf("%s n=%d k=%d m=%d: category %d count tree %d, categorical %d", variant, n, k, m, i, got[i], want)
							}
						}
						for _, j := range touched {
							if cat.batchCounts[j]+cat.batchCounts[k+int(j)] == 0 {
								t.Fatalf("%s n=%d k=%d m=%d: untouched opinion %d listed", variant, n, k, m, j)
							}
						}
						for _, c := range tree.batchCounts[:cap(tree.batchCounts)] {
							if c != 0 {
								t.Fatalf("%s n=%d k=%d m=%d: counts not clear after clearTouched", variant, n, k, m)
							}
						}
						if a, b := tree.src.Uint64(), cat.src.Uint64(); a != b {
							t.Fatalf("%s n=%d k=%d m=%d: sources diverged", variant, n, k, m)
						}
					}
				}
			}
		}
	}
	if wide == 0 {
		t.Fatal("no case had W and u·D past 2⁶⁴")
	}
}

// referenceGuide is the per-bucket guide build buildGuide replaced: for
// every bucket, a forward scan from the previous bucket's entry over the
// cumulative weights padded with u128.Max sentinels.
func referenceGuide(cum []u128.U128, buckets int) []int32 {
	padded := append(append([]u128.U128(nil), cum...), u128.Max)
	w := cum[len(cum)-1]
	guide := make([]int32, buckets)
	gb := uint(bits.Len(uint(buckets) - 1))
	lz := uint(128 - w.Len())
	idx := 0
	for g := range guide {
		rg := u128.U128{Hi: uint64(g) << (64 - gb)}.Rsh(lz)
		for padded[idx].Leq(rg) {
			idx++
		}
		guide[g] = int32(idx)
	}
	return guide
}

func TestBuildGuideMatchesReference(t *testing.T) {
	src := rng.New(77)
	// randBelow returns a value uniform on [0, x], x of at most 127 bits
	// or u128.Max.
	randBelow := func(x u128.U128) u128.U128 {
		if x.IsMax() {
			return u128.U128{Hi: src.Uint64(), Lo: src.Uint64()}
		}
		return src.Uint128n(x.Add64(1))
	}
	for trial := 0; trial < 3000; trial++ {
		k := 1 + int(src.Uint64n(40))
		// Bit lengths from 1 to 128 cover every lz, including draw spaces
		// narrower than the bucket index (lz > 128 − gb) and lz = 0.
		bitLen := 1 + uint(trial%128)
		w := u128.U128{Hi: src.Uint64(), Lo: src.Uint64()}.Rsh(128 - bitLen)
		if w.Len() < int(bitLen) { // force the top bit
			w = w.Add(u128.U128{Lo: 1}.Lsh(bitLen - 1))
		}
		cum := make([]u128.U128, 2*k)
		for i := range cum[:len(cum)-1] {
			switch src.Uint64n(6) {
			case 0:
				cum[i] = u128.U128{} // an empty leading category
			case 1:
				cum[i] = w // a category reaching W before the end
			default:
				cum[i] = randBelow(w)
			}
		}
		cum[len(cum)-1] = w
		sort.Slice(cum, func(a, b int) bool { return cum[a].Less(cum[b]) })
		buckets := 2
		for buckets <= 4*k {
			buckets <<= 1
		}
		for _, nb := range []int{buckets, 2, 1024} {
			guide := make([]int32, nb)
			gb := uint(bits.Len(uint(nb) - 1))
			buildGuide(guide, cum, gb, uint(128-w.Len()))
			want := referenceGuide(cum, nb)
			for g := range guide {
				if guide[g] != want[g] {
					t.Fatalf("k=%d W=%v buckets=%d: guide[%d] = %d, reference %d", k, w, nb, g, guide[g], want[g])
				}
			}
		}
	}
}
