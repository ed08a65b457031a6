package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWilsonKnownValues(t *testing.T) {
	// 50/100 at 95%: approximately [0.404, 0.596].
	lo, hi := WilsonInterval(50, 100, 1.96)
	if math.Abs(lo-0.404) > 0.01 || math.Abs(hi-0.596) > 0.01 {
		t.Errorf("interval = [%v, %v]", lo, hi)
	}
	// Extreme proportions stay in [0, 1] and are non-degenerate.
	lo, hi = WilsonInterval(0, 120, 1.96)
	if lo != 0 || hi <= 0 || hi > 0.1 {
		t.Errorf("0/120 interval = [%v, %v]", lo, hi)
	}
	lo, hi = WilsonInterval(120, 120, 1.96)
	if hi != 1 || lo >= 1 || lo < 0.9 {
		t.Errorf("120/120 interval = [%v, %v]", lo, hi)
	}
}

func TestWilsonDegenerate(t *testing.T) {
	lo, hi := WilsonInterval(0, 0, 1.96)
	if lo != 0 || hi != 1 {
		t.Errorf("empty interval = [%v, %v]", lo, hi)
	}
}

func TestWilsonContainsPointEstimate(t *testing.T) {
	f := func(k, n uint8) bool {
		if n == 0 {
			return true
		}
		kk := int(k) % (int(n) + 1)
		lo, hi := WilsonInterval(kk, int(n), 1.96)
		p := float64(kk) / float64(n)
		return lo <= p+1e-9 && p <= hi+1e-9 && lo >= 0 && hi <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPreventionCI(t *testing.T) {
	outs := make([]Outcome, 10)
	for i := range outs {
		outs[i] = NewOutcome()
		if i < 3 {
			outs[i].Accident = AccidentA1
		}
	}
	ci := PreventionCI(outs)
	if math.Abs(ci.Rate-0.7) > 1e-12 {
		t.Errorf("rate = %v", ci.Rate)
	}
	if ci.Lo >= ci.Rate || ci.Hi <= ci.Rate {
		t.Errorf("interval [%v, %v] should bracket %v", ci.Lo, ci.Hi, ci.Rate)
	}
}
