package numeric

import "fmt"

// Bisect finds a root of f in [a, b] where f(a) and f(b) have opposite
// signs, to absolute x-tolerance tol.
func Bisect(f func(float64) float64, a, b, tol float64) (float64, error) {
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if fa*fb > 0 {
		return 0, fmt.Errorf("numeric: Bisect: f(%v)=%v and f(%v)=%v do not bracket a root", a, fa, b, fb)
	}
	if tol <= 0 {
		tol = DefaultTol
	}
	for i := 0; i < 200; i++ {
		m := a + (b-a)/2
		fm := f(m)
		if fm == 0 || (b-a)/2 < tol {
			return m, nil
		}
		if fa*fm < 0 {
			b, fb = m, fm
		} else {
			a, fa = m, fm
		}
	}
	_ = fb
	return a + (b-a)/2, ErrNoConverge
}
