package numeric

// Kahan accumulates a sum with Kahan–Babuška compensated summation,
// bounding the accumulated rounding error independently of the number of
// addends. The zero value is an empty sum ready to use.
type Kahan struct {
	sum float64
	c   float64 // running compensation for lost low-order bits
}

// NewKahan returns an empty compensated accumulator.
func NewKahan() *Kahan { return &Kahan{} }

// Add accumulates v into the sum.
func (k *Kahan) Add(v float64) {
	y := v - k.c
	t := k.sum + y
	k.c = (t - k.sum) - y
	k.sum = t
}

// Sum returns the compensated total.
func (k *Kahan) Sum() float64 { return k.sum }

// Reset clears the accumulator back to an empty sum.
func (k *Kahan) Reset() { k.sum, k.c = 0, 0 }

// SumSlice returns the compensated sum of xs.
func SumSlice(xs []float64) float64 {
	k := NewKahan()
	for _, x := range xs {
		k.Add(x)
	}
	return k.Sum()
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return SumSlice(xs) / float64(len(xs))
}
