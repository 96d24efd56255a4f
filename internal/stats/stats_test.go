package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"hputune/internal/randx"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestQuantileBounds(t *testing.T) {
	xs := []float64{3, 1, 2}
	if v, err := Quantile(xs, 0); err != nil || v != 1 {
		t.Errorf("q0 = %v, %v", v, err)
	}
	if v, err := Quantile(xs, 1); err != nil || v != 3 {
		t.Errorf("q1 = %v, %v", v, err)
	}
	if _, err := Quantile(xs, 1.1); err == nil {
		t.Error("q > 1 accepted")
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("empty sample accepted")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	r := randx.New(41)
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = r.Float64() * 100
	}
	prop := func(a, b float64) bool {
		qa := math.Mod(math.Abs(a), 1)
		qb := math.Mod(math.Abs(b), 1)
		if qa > qb {
			qa, qb = qb, qa
		}
		va, err1 := Quantile(xs, qa)
		vb, err2 := Quantile(xs, qb)
		return err1 == nil && err2 == nil && va <= vb+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestKSAgainstTrueModelAccepts(t *testing.T) {
	r := randx.New(7)
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = r.Exp(2)
	}
	res, err := KSTest(xs, func(t float64) float64 {
		if t < 0 {
			return 0
		}
		return 1 - math.Exp(-2*t)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reject(0.01) {
		t.Errorf("true model rejected: D=%v p=%v", res.D, res.P)
	}
}

func TestKSAgainstWrongModelRejects(t *testing.T) {
	r := randx.New(8)
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = r.Exp(2)
	}
	// Null claims rate 0.5, data has rate 2: four-fold mean mismatch.
	res, err := KSTest(xs, func(t float64) float64 {
		if t < 0 {
			return 0
		}
		return 1 - math.Exp(-0.5*t)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reject(0.01) {
		t.Errorf("wrong model accepted: D=%v p=%v", res.D, res.P)
	}
}

func TestKSErrors(t *testing.T) {
	if _, err := KSTest(nil, func(float64) float64 { return 0 }); err == nil {
		t.Error("empty sample accepted")
	}
	if _, err := KSTest([]float64{1}, nil); err == nil {
		t.Error("nil CDF accepted")
	}
	if _, err := KSTest([]float64{1}, func(float64) float64 { return math.NaN() }); err == nil {
		t.Error("NaN CDF accepted")
	}
}

func TestKolmogorovPMonotone(t *testing.T) {
	// p-value must decrease as D grows.
	prev := 1.0
	for d := 0.01; d < 0.5; d += 0.01 {
		p := kolmogorovP(d, 100)
		if p > prev+1e-12 {
			t.Fatalf("p-value not monotone at d=%v: %v > %v", d, p, prev)
		}
		prev = p
	}
}

func TestKSExponentialAcceptsExponential(t *testing.T) {
	r := randx.New(21)
	xs := make([]float64, 150)
	for i := range xs {
		xs[i] = r.Exp(0.004) // AMT-scale rate from the paper
	}
	res, err := KSExponential(xs, 500, randx.New(22))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reject(0.01) {
		t.Errorf("exponential data rejected: D=%v p=%v", res.D, res.P)
	}
}

func TestKSExponentialRejectsUniform(t *testing.T) {
	r := randx.New(23)
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = 1 + r.Float64() // Uniform(1, 2): nothing like exponential
	}
	res, err := KSExponential(xs, 500, randx.New(24))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reject(0.05) {
		t.Errorf("uniform data accepted as exponential: D=%v p=%v", res.D, res.P)
	}
}

func TestKSExponentialErrors(t *testing.T) {
	r := randx.New(1)
	if _, err := KSExponential([]float64{1}, 500, r); err == nil {
		t.Error("single sample accepted")
	}
	if _, err := KSExponential([]float64{1, 2}, 10, r); err == nil {
		t.Error("too few trials accepted")
	}
	if _, err := KSExponential([]float64{1, 2}, 500, nil); err == nil {
		t.Error("nil rand accepted")
	}
	if _, err := KSExponential([]float64{-1, 2}, 500, r); err == nil {
		t.Error("negative sample accepted")
	}
	if _, err := KSExponential([]float64{0, 0}, 500, r); err == nil {
		t.Error("all-zero sample accepted")
	}
}

func TestChiSquareCDFKnownValues(t *testing.T) {
	// χ²(2) is Exp(1/2): CDF(x) = 1 − e^{−x/2}.
	for _, x := range []float64{0.5, 1, 2, 5, 10} {
		got, err := ChiSquareCDF(2, x)
		if err != nil {
			t.Fatal(err)
		}
		want := 1 - math.Exp(-x/2)
		if !almostEqual(got, want, 1e-10) {
			t.Errorf("χ²(2) CDF(%v) = %v, want %v", x, got, want)
		}
	}
	// Median of χ²(1) ≈ 0.4549.
	got, err := ChiSquareCDF(1, 0.454936)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 0.5, 1e-4) {
		t.Errorf("χ²(1) CDF(0.4549) = %v, want 0.5", got)
	}
}

func TestChiSquareQuantileRoundTrip(t *testing.T) {
	for _, k := range []int{1, 2, 5, 10, 40} {
		for _, q := range []float64{0.025, 0.5, 0.975} {
			x, err := ChiSquareQuantile(k, q)
			if err != nil {
				t.Fatal(err)
			}
			back, err := ChiSquareCDF(k, x)
			if err != nil {
				t.Fatal(err)
			}
			if !almostEqual(back, q, 1e-7) {
				t.Errorf("k=%d q=%v: CDF(quantile) = %v", k, q, back)
			}
		}
	}
}

func TestChiSquareQuantileKnown(t *testing.T) {
	// χ²(10) 95th percentile ≈ 18.307.
	x, err := ChiSquareQuantile(10, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x, 18.307, 1e-3) {
		t.Errorf("χ²(10) q95 = %v, want 18.307", x)
	}
}

func TestChiSquareErrors(t *testing.T) {
	if _, err := ChiSquareCDF(0, 1); err == nil {
		t.Error("zero df accepted")
	}
	if _, err := ChiSquareQuantile(2, 0); err == nil {
		t.Error("q=0 accepted")
	}
	if _, err := ChiSquareQuantile(2, 1); err == nil {
		t.Error("q=1 accepted")
	}
}

func TestChiSquareExponentialAccepts(t *testing.T) {
	r := randx.New(31)
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = r.Exp(3)
	}
	res, err := ChiSquareExponential(xs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reject(0.01) {
		t.Errorf("exponential data rejected: stat=%v df=%d p=%v", res.Stat, res.DF, res.P)
	}
}

func TestChiSquareExponentialRejectsErlang(t *testing.T) {
	r := randx.New(33)
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = r.Erlang(5, 5) // mean 1 but far less dispersed than Exp
	}
	res, err := ChiSquareExponential(xs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reject(0.05) {
		t.Errorf("Erlang(5) accepted as exponential: stat=%v p=%v", res.Stat, res.P)
	}
}

func TestChiSquareExponentialErrors(t *testing.T) {
	if _, err := ChiSquareExponential([]float64{1, 2, 3}); err == nil {
		t.Error("small sample accepted")
	}
	xs := make([]float64, 20)
	if _, err := ChiSquareExponential(xs); err == nil {
		t.Error("all-zero sample accepted")
	}
	xs[0] = -1
	if _, err := ChiSquareExponential(xs); err == nil {
		t.Error("negative sample accepted")
	}
}

func TestRateIntervalFromDurationsCoverage(t *testing.T) {
	// Empirical coverage of the exact CI should be close to nominal.
	r := randx.New(5)
	const trials = 300
	const n = 20
	const rate = 0.01
	covered := 0
	for trial := 0; trial < trials; trial++ {
		total := 0.0
		for i := 0; i < n; i++ {
			total += r.Exp(rate)
		}
		ci, err := RateIntervalFromDurations(n, total, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if ci.Contains(rate) {
			covered++
		}
		if ci.Lo >= ci.Hi {
			t.Fatalf("degenerate interval: %+v", ci)
		}
		if !ci.Contains(ci.Point) {
			t.Fatalf("point estimate outside its own interval: %+v", ci)
		}
	}
	frac := float64(covered) / trials
	if frac < 0.90 || frac > 0.99 {
		t.Errorf("95%% CI covered %v of trials", frac)
	}
}

func TestRateIntervalFromCountCoverage(t *testing.T) {
	r := randx.New(6)
	const trials = 300
	const rate = 2.0
	const horizon = 10.0
	covered := 0
	for trial := 0; trial < trials; trial++ {
		n := r.Poisson(rate * horizon)
		ci, err := RateIntervalFromCount(n, horizon, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if ci.Contains(rate) {
			covered++
		}
	}
	frac := float64(covered) / trials
	if frac < 0.90 {
		t.Errorf("95%% Garwood CI covered only %v of trials", frac)
	}
}

func TestRateIntervalZeroCount(t *testing.T) {
	ci, err := RateIntervalFromCount(0, 10, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Lo != 0 {
		t.Errorf("zero-count CI lower bound = %v, want 0", ci.Lo)
	}
	if ci.Hi <= 0 {
		t.Errorf("zero-count CI upper bound = %v, want > 0", ci.Hi)
	}
}

func TestRateIntervalErrors(t *testing.T) {
	if _, err := RateIntervalFromDurations(0, 1, 0.95); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := RateIntervalFromDurations(5, 0, 0.95); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := RateIntervalFromDurations(5, 1, 1.5); err == nil {
		t.Error("confidence > 1 accepted")
	}
	if _, err := RateIntervalFromCount(-1, 1, 0.95); err == nil {
		t.Error("negative count accepted")
	}
	if _, err := RateIntervalFromCount(5, -1, 0.95); err == nil {
		t.Error("negative horizon accepted")
	}
	if _, err := RateIntervalFromCount(5, 1, 0); err == nil {
		t.Error("zero confidence accepted")
	}
}

func TestRateIntervalWidthShrinksWithN(t *testing.T) {
	// Property: with the point estimate held at 1 (total = n), the CI
	// width must shrink as n grows.
	prev := math.Inf(1)
	for _, n := range []int{5, 10, 20, 50, 100} {
		ci, err := RateIntervalFromDurations(n, float64(n), 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if ci.Width() >= prev {
			t.Errorf("CI width did not shrink at n=%d: %v >= %v", n, ci.Width(), prev)
		}
		prev = ci.Width()
	}
}

func TestKSStatisticAgainstManual(t *testing.T) {
	// Hand-computed D for a tiny sample against Uniform(0,1).
	xs := []float64{0.1, 0.2, 0.9}
	sort.Float64s(xs)
	res, err := KSTest(xs, func(t float64) float64 {
		switch {
		case t < 0:
			return 0
		case t > 1:
			return 1
		}
		return t
	})
	if err != nil {
		t.Fatal(err)
	}
	// At x=0.2: F̂ jumps to 2/3, F=0.2 → 0.4667 is the sup.
	if !almostEqual(res.D, 2.0/3-0.2, 1e-12) {
		t.Errorf("D = %v, want %v", res.D, 2.0/3-0.2)
	}
}
