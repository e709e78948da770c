package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/u128"
)

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile; with fewer the percentile is an extrapolation, not a
// measurement.
const tailMinBeyond = 10

// tailMaxPct caps the tail percentile. Past p95 a sharded run's hundred
// thousand trial latencies and seven thousand waves measure host stalls
// (a slow fsync, a busy core) that differ fourfold between identical runs
// at p99.99 and twofold at p99, not the engine.
const tailMaxPct = 95

// errFewSamples reports a sample too small to carry a tail percentile.
var errFewSamples = errors.New("fewer samples than a tail percentile needs")

// tail holds a latency distribution's median and its tail: the highest
// percentile, up to tailMaxPct, that has at least tailMinBeyond samples
// beyond it.
type tail struct {
	P50 float64 `json:"p50"`
	// Value is the order statistic with Beyond samples above it, and Pct
	// the share of samples at or below it, in percent.
	Value  float64 `json:"tail"`
	Pct    float64 `json:"tail_pct"`
	Beyond int     `json:"beyond"`
	// Count is the sample count both figures come from.
	Count int `json:"count"`
}

// tailOf returns the median and the tail of xs; xs is sorted in place.
// It needs at least tailMinBeyond+1 samples.
func tailOf(xs []float64) (tail, error) {
	n := len(xs)
	if n <= tailMinBeyond {
		return tail{Count: n}, errFewSamples
	}
	sort.Float64s(xs)
	beyond := max(tailMinBeyond, (n*(100-tailMaxPct)+99)/100)
	return tail{
		P50:    median(xs),
		Value:  xs[n-1-beyond],
		Pct:    100 * float64(n-beyond) / float64(n),
		Beyond: beyond,
		Count:  n,
	}, nil
}

// median returns the median of sorted xs, averaging the two middle values
// when the count is even (Python's statistics.median).
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartiles returns the three cut points that split sorted xs into four
// groups, by the same exclusive method as Python's
// statistics.quantiles(xs, n=4), so spreads computed here match the ones
// the acceptance check computes. It needs at least two values.
func quartiles(sorted []float64) (q1, q2, q3 float64) {
	ld := len(sorted)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// relSpread is the interquartile distance of xs over their median: the
// run-to-run spread a bound must cover. xs is sorted in place.
func relSpread(xs []float64) float64 {
	sort.Float64s(xs)
	q1, _, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// nsPer divides a wall time by a 128-bit interaction total. Per-trial
// interaction counts reach 2⁶⁴ at the top of the population range, so the
// sum is kept exact and only the ratio is rounded.
func nsPer(wallNs int64, total u128.U128) float64 {
	if total.IsZero() {
		return math.NaN()
	}
	return float64(wallNs) / total.Float64()
}

// sig formats x with six significant digits: ns/interaction spans from
// ~10⁻³ at n = 10⁸ to ~10² on budgeted trials, which fixed decimals
// either truncate to zero or pad with noise.
func sig(x float64) string {
	return strconv.FormatFloat(x, 'g', 6, 64)
}

// printSpread reads one result line per run (the last line a run prints)
// from path and prints each metric's median and the distance between its
// quartiles as a share of the median, the spread a metric's bound must
// cover.
func printSpread(path string, w io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	runs := 0
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var r struct {
			Metrics map[string]metric `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		runs++
		for k, m := range r.Metrics {
			values[k] = append(values[k], m.Value)
		}
	}
	if runs < 2 {
		return fmt.Errorf("%s: %d runs, want at least 2", path, runs)
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		xs := values[k]
		s := relSpread(xs)
		fmt.Fprintf(w, "%-36s median %-12s spread %-10s (%d runs)\n", k, sig(median(xs)), sig(s), len(xs))
	}
	return nil
}
