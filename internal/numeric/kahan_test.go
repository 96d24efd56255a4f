package numeric

import (
	"math"
	"testing"
)

func TestKahanCompensation(t *testing.T) {
	// Summing 1e16 followed by many 1.0s loses the ones under naive
	// addition; Kahan keeps them.
	k := NewKahan()
	k.Add(1e16)
	for i := 0; i < 1000; i++ {
		k.Add(1.0)
	}
	k.Add(-1e16)
	if got := k.Sum(); got != 1000 {
		t.Errorf("compensated sum = %v, want 1000", got)
	}
}

func TestKahanReset(t *testing.T) {
	k := NewKahan()
	k.Add(42)
	k.Reset()
	if k.Sum() != 0 {
		t.Errorf("after Reset sum = %v, want 0", k.Sum())
	}
}

func TestSumSliceAndMean(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if s := SumSlice(xs); s != 10 {
		t.Errorf("SumSlice = %v, want 10", s)
	}
	if m := Mean(xs); m != 2.5 {
		t.Errorf("Mean = %v, want 2.5", m)
	}
	if m := Mean(nil); m != 0 {
		t.Errorf("Mean(nil) = %v, want 0", m)
	}
}

func TestBisect(t *testing.T) {
	root, err := Bisect(func(x float64) float64 { return x*x - 2 }, 0, 2, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(root-math.Sqrt2) > 1e-10 {
		t.Errorf("root = %v, want √2", root)
	}
	if _, err := Bisect(func(x float64) float64 { return x*x + 1 }, -1, 1, 1e-9); err == nil {
		t.Error("expected bracketing error")
	}
	// Exact endpoints.
	if r, err := Bisect(func(x float64) float64 { return x }, 0, 1, 1e-9); err != nil || r != 0 {
		t.Errorf("endpoint root = %v, %v", r, err)
	}
}

func TestFitLinearRecoversLine(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2.5*x - 1
	}
	fit, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2.5) > 1e-12 || math.Abs(fit.Intercept+1) > 1e-12 {
		t.Errorf("fit = %+v, want slope 2.5 intercept -1", fit)
	}
	if math.Abs(fit.R2-1) > 1e-12 {
		t.Errorf("R² = %v, want 1", fit.R2)
	}
	if got := fit.Predict(10); math.Abs(got-24) > 1e-12 {
		t.Errorf("Predict(10) = %v, want 24", got)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{1}); err == nil {
		t.Error("expected error for single point")
	}
	if _, err := FitLinear([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("expected error for mismatched lengths")
	}
	if _, err := FitLinear([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("expected error for constant x")
	}
}

func TestFitLinearNoisyR2(t *testing.T) {
	// A clearly linear relationship with mild noise keeps R² high.
	xs := make([]float64, 50)
	ys := make([]float64, 50)
	for i := range xs {
		x := float64(i)
		xs[i] = x
		noise := math.Sin(float64(i) * 12.9898) // deterministic pseudo-noise in [-1,1]
		ys[i] = 3*x + 7 + noise
	}
	fit, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if fit.R2 < 0.999 {
		t.Errorf("R² = %v, want > 0.999", fit.R2)
	}
	if math.Abs(fit.Slope-3) > 0.05 {
		t.Errorf("slope = %v, want ≈3", fit.Slope)
	}
}
