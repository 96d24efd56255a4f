package experiments

import (
	"strings"
	"testing"
)

func fastCfg() Config {
	return Config{Seed: 7, Fast: true, Trials: 150, Rounds: 3}.Normalize()
}

func TestNormalizeDefaults(t *testing.T) {
	c := Config{}.Normalize()
	if c.Seed == 0 || c.Trials == 0 || c.Rounds == 0 {
		t.Errorf("defaults not filled: %+v", c)
	}
	f := Config{Fast: true}.Normalize()
	if f.Trials >= c.Trials || f.Rounds >= c.Rounds {
		t.Errorf("fast mode not cheaper: %+v vs %+v", f, c)
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"motivation", "fig2-homo", "fig2-repe", "fig2-heter",
		"fig3", "fig4", "fig5a", "fig5b", "fig5c", "linearity",
	}
	names := Names()
	got := map[string]bool{}
	for _, n := range names {
		got[n] = true
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("experiment %q not registered (have %v)", w, names)
		}
	}
	for _, n := range names {
		desc, err := Describe(n)
		if err != nil || desc == "" {
			t.Errorf("experiment %q has no description: %v", n, err)
		}
	}
	if _, err := Describe("nope"); err == nil {
		t.Error("unknown experiment described")
	}
	if _, err := Run("nope", fastCfg()); err == nil {
		t.Error("unknown experiment ran")
	}
}

func noWarnings(t *testing.T, name string, res Result) {
	t.Helper()
	for _, n := range res.Notes {
		if strings.Contains(n, "WARNING") {
			t.Errorf("%s produced warning: %s", name, n)
		}
	}
}

func TestMotivationReproducesOrdering(t *testing.T) {
	res, err := Run("motivation", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	noWarnings(t, "motivation", res)
	if len(res.Figures) != 1 || len(res.Figures[0].Series) != 2 {
		t.Fatalf("unexpected figure shape: %+v", res.Figures)
	}
	for _, s := range res.Figures[0].Series {
		if len(s.Y) != 2 || s.Y[1] >= s.Y[0] {
			t.Errorf("series %s: case 2 (%v) must beat case 1 (%v)", s.Name, s.Y[1], s.Y[0])
		}
	}
}

func TestFig2HomoOptWins(t *testing.T) {
	res, err := Run("fig2-homo", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	noWarnings(t, "fig2-homo", res)
	if len(res.Figures) != 2 { // fast mode: 2 models
		t.Fatalf("got %d figures in fast mode, want 2", len(res.Figures))
	}
	for _, fig := range res.Figures {
		if len(fig.Series) != 3 {
			t.Fatalf("%s: got %d series", fig.ID, len(fig.Series))
		}
		opt := fig.Series[0]
		for si := 1; si < 3; si++ {
			for i := range opt.Y {
				if opt.Y[i] > fig.Series[si].Y[i]*1.02+1e-9 {
					t.Errorf("%s: opt %.4f worse than %s %.4f at budget %.0f",
						fig.ID, opt.Y[i], fig.Series[si].Name, fig.Series[si].Y[i], opt.X[i])
				}
			}
		}
		// Latency decreases with budget (diminishing but monotone).
		for i := 1; i < len(opt.Y); i++ {
			if opt.Y[i] > opt.Y[i-1]+1e-9 {
				t.Errorf("%s: opt latency rose with budget: %v", fig.ID, opt.Y)
			}
		}
	}
}

func TestFig2RepeOptWins(t *testing.T) {
	res, err := Run("fig2-repe", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	noWarnings(t, "fig2-repe", res)
	for _, fig := range res.Figures {
		opt := fig.Series[0]
		for si := 1; si < len(fig.Series); si++ {
			for i := range opt.Y {
				// RA prices each group uniformly (Algorithm 2), so it can
				// strand up to min(unitCost)-1 budget units that rep-even
				// scatters as +1 increments; that makes several budgets
				// analytic near-ties which fast-mode Monte-Carlo noise
				// (2-3% at 150 trials) decides either way. The win band
				// therefore matches the experiment's own 3% "best-or-tied"
				// criterion. At the tightest budget, and for the non-linear
				// models where the paper itself reports the curves nearly
				// coincide (its case (e) discussion), the band stays wider.
				band := 1.03
				nonLinear := strings.Contains(fig.ID, "p^2") || strings.Contains(fig.ID, "log")
				if opt.X[i] <= 1000 || nonLinear {
					band = 1.06
				}
				if opt.Y[i] > fig.Series[si].Y[i]*band+1e-9 {
					t.Errorf("%s: opt %.4f worse than %s %.4f at budget %.0f",
						fig.ID, opt.Y[i], fig.Series[si].Name, fig.Series[si].Y[i], opt.X[i])
				}
			}
		}
	}
}

func TestFig2HeterOptCompetitive(t *testing.T) {
	res, err := Run("fig2-heter", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Monte-Carlo evaluation: allow a modest noise margin but require the
	// tuned allocation to stay competitive everywhere.
	for _, fig := range res.Figures {
		opt := fig.Series[0]
		for si := 1; si < len(fig.Series); si++ {
			for i := range opt.Y {
				if opt.Y[i] > fig.Series[si].Y[i]*1.10 {
					t.Errorf("%s: opt %.4f far worse than %s %.4f at budget %.0f",
						fig.ID, opt.Y[i], fig.Series[si].Name, fig.Series[si].Y[i], opt.X[i])
				}
			}
		}
	}
}

func TestFig3Linearity(t *testing.T) {
	res, err := Run("fig3", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	noWarnings(t, "fig3", res)
	fig := res.Figures[0]
	if len(fig.Series) != 3 {
		t.Fatalf("got %d series", len(fig.Series))
	}
	// Acceptance epochs increase with order.
	ph1 := fig.Series[0]
	for i := 1; i < len(ph1.Y); i++ {
		if ph1.Y[i] < ph1.Y[i-1] {
			t.Errorf("acceptance epochs not increasing at order %d", i+1)
		}
	}
}

func TestFig4RewardOrdering(t *testing.T) {
	res, err := Run("fig4", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	noWarnings(t, "fig4", res)
	fig := res.Figures[0]
	if len(fig.Series) != 4 {
		t.Fatalf("got %d series", len(fig.Series))
	}
	// Cheapest reward slowest, priciest fastest, at the last order.
	last := func(i int) float64 { return fig.Series[i].Y[len(fig.Series[i].Y)-1] }
	if !(last(0) > last(3)) {
		t.Errorf("$0.05 (%.1f) should be slower than $0.12 (%.1f)", last(0), last(3))
	}
}

func TestFig5aDifficultySlowsAcceptance(t *testing.T) {
	res, err := Run("fig5a", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	noWarnings(t, "fig5a", res)
	if len(res.Figures[0].Series) != 6 {
		t.Fatalf("got %d series, want 6", len(res.Figures[0].Series))
	}
}

func TestFig5bDifficultySlowsProcessing(t *testing.T) {
	res, err := Run("fig5b", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	noWarnings(t, "fig5b", res)
}

func TestFig5cOptBeatsHeuristic(t *testing.T) {
	res, err := Run("fig5c", Config{Seed: 7, Fast: true, Rounds: 12}.Normalize())
	if err != nil {
		t.Fatal(err)
	}
	noWarnings(t, "fig5c", res)
	fig := res.Figures[0]
	if len(fig.Series) != 6 {
		t.Fatalf("got %d series, want 6 (OPT/HEU × t1..t3)", len(fig.Series))
	}
}

func TestLinearityExperiment(t *testing.T) {
	res, err := Run("linearity", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	noWarnings(t, "linearity", res)
}

func TestDeterministicResults(t *testing.T) {
	a, err := Run("fig3", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("fig3", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Figures[0].Series {
		sa, sb := a.Figures[0].Series[i], b.Figures[0].Series[i]
		for j := range sa.Y {
			if sa.Y[j] != sb.Y[j] {
				t.Fatalf("same seed, different results: %v vs %v", sa.Y[j], sb.Y[j])
			}
		}
	}
}

func TestComparator29GapPositive(t *testing.T) {
	res, err := Run("comparator-29", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	fig := res.Figures[0]
	series := map[string][]float64{}
	for _, s := range fig.Series {
		series[s.Name] = s.Y
	}
	ra, ha, par := series["RA"], series["HA"], series["[29]"]
	if len(ra) == 0 || len(ha) == 0 || len(par) == 0 {
		t.Fatalf("missing series in %v", fig.Series)
	}
	for i := range par {
		best := ra[i]
		if ha[i] < best {
			best = ha[i]
		}
		if par[i] < best-1e-9 {
			t.Errorf("budget point %d: [29] %v beat H-Tuning best %v", i, par[i], best)
		}
	}
	// On a chain-heavy workload the gap should be material somewhere.
	worst := 0.0
	for i := range par {
		best := ra[i]
		if ha[i] < best {
			best = ha[i]
		}
		if g := par[i]/best - 1; g > worst {
			worst = g
		}
	}
	if worst < 0.05 {
		t.Errorf("worst [29] gap only %.1f%%, expected > 5%%", 100*worst)
	}
}

func TestRetainerCrossover(t *testing.T) {
	res, err := Run("retainer", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	fig := res.Figures[0]
	series := map[string][]float64{}
	for _, s := range fig.Series {
		series[s.Name] = s.Y
	}
	posted, pooled := series["posted"], series["retainer"]
	if len(posted) != len(pooled) || len(posted) == 0 {
		t.Fatalf("bad series shapes: %v", fig.Series)
	}
	// Posted-price improves with budget; the retainer saturates and wins
	// once fees afford enough workers.
	for i := 1; i < len(posted); i++ {
		if posted[i] > posted[i-1]+1e-9 {
			t.Errorf("posted latency rose with budget at point %d: %v -> %v", i, posted[i-1], posted[i])
		}
		if pooled[i] > pooled[i-1]+1e-9 {
			t.Errorf("retainer latency rose with budget at point %d: %v -> %v", i, pooled[i-1], pooled[i])
		}
	}
	last := len(posted) - 1
	if pooled[last] >= posted[last] {
		t.Errorf("at the largest budget the retainer (%v) should beat posted price (%v)", pooled[last], posted[last])
	}
}

func TestAbandonmentRobustness(t *testing.T) {
	res, err := Run("abandonment", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	fig := res.Figures[0]
	series := map[string][]float64{}
	for _, s := range fig.Series {
		series[s.Name] = s.Y
	}
	opt, bias := series["opt"], series["bias"]
	if len(opt) != len(bias) || len(opt) < 2 {
		t.Fatalf("bad series shapes: %v", fig.Series)
	}
	// Injected abandonment must slow both allocations down.
	last := len(opt) - 1
	if opt[last] <= opt[0] {
		t.Errorf("opt did not slow under abandonment: %v -> %v", opt[0], opt[last])
	}
	if bias[last] <= bias[0] {
		t.Errorf("bias did not slow under abandonment: %v -> %v", bias[0], bias[last])
	}
	// The tuned allocation must keep its lead at the heaviest injection.
	if opt[last] > bias[last] {
		t.Errorf("EA lost under abandonment: %v > %v", opt[last], bias[last])
	}
}

func TestHeavyTailRobustness(t *testing.T) {
	res, err := Run("heavytail", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	fig := res.Figures[0]
	series := map[string][]float64{}
	for _, s := range fig.Series {
		series[s.Name] = s.Y
	}
	opt, bias := series["opt"], series["bias"]
	if len(opt) != len(bias) || len(opt) < 2 {
		t.Fatalf("bad series shapes: %v", fig.Series)
	}
	// The heavier tail must slow both allocations and EA must keep its
	// lead at the exponential baseline (first point).
	last := len(opt) - 1
	if opt[last] <= opt[0] {
		t.Errorf("opt did not slow under heavy tails: %v -> %v", opt[0], opt[last])
	}
	if opt[0] > bias[0] {
		t.Errorf("EA lost at the exponential baseline: %v > %v", opt[0], bias[0])
	}
}
