package metrics

import "math"

// WilsonInterval returns the Wilson score confidence interval for a
// binomial proportion: successes k out of n trials at the given z value
// (1.96 for 95 %). It is well behaved for the small n (= 120 runs per
// cell) and extreme proportions (0 %, 100 %) that the campaign produces,
// unlike the normal approximation.
func WilsonInterval(k, n int, z float64) (lo, hi float64) {
	if n <= 0 {
		return 0, 1
	}
	if z <= 0 {
		z = 1.96
	}
	p := float64(k) / float64(n)
	nf := float64(n)
	denom := 1 + z*z/nf
	centre := p + z*z/(2*nf)
	margin := z * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf))
	lo = (centre - margin) / denom
	hi = (centre + margin) / denom
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	// At the extremes (k = 0 or k = n) the bound algebraically equals p
	// but floating-point rounding can land a few ulps inside it; the
	// interval must always bracket the observed proportion.
	if lo > p {
		lo = p
	}
	if hi < p {
		hi = p
	}
	return lo, hi
}

// RateCI summarises a rate with its 95 % Wilson interval.
type RateCI struct {
	Rate float64
	Lo   float64
	Hi   float64
}

// NewRateCI builds a RateCI from k successes out of n trials.
func NewRateCI(k, n int) RateCI {
	lo, hi := WilsonInterval(k, n, 1.96)
	rate := 0.0
	if n > 0 {
		rate = float64(k) / float64(n)
	}
	return RateCI{Rate: rate, Lo: lo, Hi: hi}
}

// PreventionCI computes the prevention rate of a set of outcomes with its
// confidence interval.
func PreventionCI(outs []Outcome) RateCI {
	prevented := 0
	for _, o := range outs {
		if o.Prevented() {
			prevented++
		}
	}
	return NewRateCI(prevented, len(outs))
}
