package main

import (
	"errors"
	"math"
	"testing"

	"repro/internal/u128"
)

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n, beyond int
		pct       float64
	}{
		{11, 10, 100.0 / 11},
		{20, 10, 50},
		{100, 10, 90},
		{200, 10, 95},
		{201, 11, 100 * 190.0 / 201}, // p95 needs 10.05 beyond: 11
		{60800, 3040, 95},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // descending, so tailOf must sort
		}
		got, err := tailOf(xs)
		if err != nil {
			t.Fatalf("n=%d: %v", c.n, err)
		}
		beyond := 0
		for _, x := range xs {
			if x > got.Value {
				beyond++
			}
		}
		if beyond != c.beyond || got.Beyond != c.beyond {
			t.Errorf("n=%d: %d samples beyond the tail %v (reported %d), want %d", c.n, beyond, got.Value, got.Beyond, c.beyond)
		}
		if got.Pct != c.pct {
			t.Errorf("n=%d: tail percentile %v, want %v", c.n, got.Pct, c.pct)
		}
		if got.Count != c.n {
			t.Errorf("n=%d: count %d", c.n, got.Count)
		}
	}
	got, _ := tailOf([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	if got.Value != 10 || got.Pct != 50 || got.P50 != 10.5 {
		t.Errorf("n=20: got %+v, want tail 10 at the 50th percentile, median 10.5", got)
	}
	if _, err := tailOf(make([]float64, tailMinBeyond)); !errors.Is(err, errFewSamples) {
		t.Errorf("10 samples: err = %v, want errFewSamples", err)
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns for the same inputs.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 10.5, 11, 13, 20}, 10.25, 11, 16.5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := relSpread([]float64{8, 9, 10, 11, 12, 10, 10, 10, 10, 10}); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("relSpread = %v, want 0.05", got)
	}
}

func TestNsPerInteractionKeepsSignificantDigits(t *testing.T) {
	// Three trials of 2⁶³ interactions each (the clock range of
	// n ≈ 10¹⁰) sum past 2⁶⁴, and the ratio is far below 0.001 ns.
	var total u128.U128
	per := u128.FromU64(1 << 63)
	for i := 0; i < 3; i++ {
		total = total.Add(per)
	}
	if total.Hi != 1 {
		t.Fatalf("sum lost its carry: %+v", total)
	}
	got := nsPer(27_670_000_000, total)
	want := 27_670_000_000 / (3 * math.Pow(2, 63))
	if math.Abs(got-want) > 1e-12*want {
		t.Errorf("nsPer = %v, want %v", got, want)
	}
	if s := sig(got); s != "9.99996e-10" {
		t.Errorf("sig(%v) = %q, want 9.99996e-10", got, s)
	}
	if s := sig(0.00117352811); s != "0.00117353" {
		t.Errorf("sig = %q, want six significant digits", s)
	}
	if !math.IsNaN(nsPer(5, u128.U128{})) {
		t.Error("nsPer over zero interactions must be NaN, not Inf")
	}
}
