package htuning

import (
	"testing"

	"hputune/internal/pricing"
)

func TestSaturationScanSensitiveModelSaturatesEarly(t *testing.T) {
	// λ = 10p + 1: the paper's case (b), where "the on-hold latency
	// decreases to a low level with a relatively lower price".
	est := NewEstimator()
	sensitive := Group{
		Type:  &TaskType{Name: "b", Accept: pricing.Linear{K: 10, B: 1}, ProcRate: 2},
		Tasks: 20, Reps: 1,
	}
	res, err := SaturationScan(est, sensitive, 100, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated() {
		t.Fatal("sensitive model did not saturate within price 100")
	}
	if res.SaturationPrice > 10 {
		t.Errorf("sensitive model saturated only at price %d, expected early", res.SaturationPrice)
	}
	// The insensitive model (c) must saturate immediately too — price
	// buys nothing — while the moderate model saturates later than (b).
	insensitive := Group{
		Type:  &TaskType{Name: "c", Accept: pricing.Linear{K: 0.1, B: 10}, ProcRate: 2},
		Tasks: 20, Reps: 1,
	}
	resC, err := SaturationScan(est, insensitive, 100, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if !resC.Saturated() || resC.SaturationPrice > 3 {
		t.Errorf("insensitive model should saturate immediately, got %+v", resC.SaturationPrice)
	}
	moderate := Group{
		Type:  &TaskType{Name: "a", Accept: pricing.Linear{K: 1, B: 1}, ProcRate: 2},
		Tasks: 20, Reps: 1,
	}
	resA, err := SaturationScan(est, moderate, 100, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if resA.Saturated() && resA.SaturationPrice <= res.SaturationPrice {
		t.Errorf("moderate model (price %d) should saturate later than the sensitive one (price %d)",
			resA.SaturationPrice, res.SaturationPrice)
	}
}

func TestSaturationScanCurveShape(t *testing.T) {
	est := NewEstimator()
	g := Group{
		Type:  &TaskType{Name: "a", Accept: pricing.Linear{K: 1, B: 1}, ProcRate: 2},
		Tasks: 10, Reps: 2,
	}
	res, err := SaturationScan(est, g, 30, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve) < 10 {
		t.Fatalf("curve too short: %d points", len(res.Curve))
	}
	if res.ProcessingFloor <= 0 {
		t.Error("no processing floor")
	}
	for i := 1; i < len(res.Curve); i++ {
		prev, cur := res.Curve[i-1], res.Curve[i]
		if cur.Latency > prev.Latency+1e-9 {
			t.Errorf("latency rose with price at %d: %v -> %v", cur.Price, prev.Latency, cur.Latency)
		}
		if cur.Marginal < -1e-9 {
			t.Errorf("negative marginal at %d: %v", cur.Price, cur.Marginal)
		}
		// Latency can never drop below the processing floor.
		if cur.Latency < res.ProcessingFloor-1e-9 {
			t.Errorf("latency %v below processing floor %v", cur.Latency, res.ProcessingFloor)
		}
	}
}

func TestSaturationScanValidation(t *testing.T) {
	est := NewEstimator()
	g := Group{
		Type:  &TaskType{Name: "a", Accept: pricing.Linear{K: 1, B: 1}, ProcRate: 2},
		Tasks: 5, Reps: 1,
	}
	if _, err := SaturationScan(est, g, 1, 0.01); err == nil {
		t.Error("maxPrice 1 accepted")
	}
	if _, err := SaturationScan(est, g, 10, 0); err == nil {
		t.Error("zero fraction accepted")
	}
	bad := g
	bad.Tasks = 0
	if _, err := SaturationScan(est, bad, 10, 0.01); err == nil {
		t.Error("invalid group accepted")
	}
}
