package anytime

import "testing"

func TestEstimateProbExact(t *testing.T) {
	if got := EstimateProbExact(0, 0, 0); got != 1 {
		t.Fatalf("no remaining risk must be certainty, got %v", got)
	}
	// More remaining at-risk candidates → lower probability.
	p1 := EstimateProbExact(2, 100, 5)
	p2 := EstimateProbExact(2, 100, 50)
	if !(p1 > p2) {
		t.Fatalf("probability not monotone in remaining: %v vs %v", p1, p2)
	}
	// Higher observed flip rate → lower probability.
	q1 := EstimateProbExact(1, 100, 10)
	q2 := EstimateProbExact(50, 100, 10)
	if !(q1 > q2) {
		t.Fatalf("probability not monotone in flip rate: %v vs %v", q1, q2)
	}
	// Degenerate total-flip history.
	if got := EstimateProbExact(10, 8, 3); got < 0 || got > 1 {
		t.Fatalf("estimate out of range: %v", got)
	}
	for _, p := range []float64{p1, p2, q1, q2} {
		if p < 0 || p > 1 {
			t.Fatalf("estimate out of [0,1]: %v", p)
		}
	}
}
