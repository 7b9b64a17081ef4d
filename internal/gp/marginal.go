package gp

import (
	"fmt"
	"math"
)

// Marginal-likelihood training — the classical alternative to the LOO
// objective the paper adopts. [Sundararajan & Keerthi 2001], the
// paper's reference [64], compares exactly these two: LOO ("GPP") is
// more robust to model misspecification, ML is the textbook choice.
// Both are provided so the trade-off can be measured
// (BenchmarkAblationWarmStart exercises LOO; TestMLvsLOO compares the
// two objectives' fits).

// MarginalLikelihood returns the log marginal likelihood of the
// model's training data: log p(y|X,Θ) = −½yᵀC⁻¹y − ½log|C| − n/2·log2π.
func (m *Model) MarginalLikelihood() float64 {
	return marginalSum(m.y, m.alpha, m.chol)
}

// mlValueGrad evaluates the log marginal likelihood and its gradient
// w.r.t. the log hyperparameters:
// ∂logZ/∂ψ_j = ½·tr((ααᵀ − C⁻¹)·∂C/∂ψ_j)   [R&W 2006, Eqn. 5.9].
// K_SE entries are read back from the retained covariance (off-diagonal
// entries are exactly K_SE; on the diagonal K_SE = θ₀²) and squared
// distances come from the trainSet source, so one O(n²) pass serves all
// three traces with no re-exponentiation.
func mlValueGrad(ts trainSet, hp Hyper, s *evalScratch) (float64, [3]float64, error) {
	var grad [3]float64
	if err := s.fit(ts, hp); err != nil {
		return 0, grad, err
	}
	lz := marginalSum(ts.y, s.alpha, &s.chol)
	if err := s.chol.InverseTo(s.kinv, s.linv); err != nil {
		return 0, grad, fmt.Errorf("%w: %v", ErrCondition, err)
	}
	kinv := s.kinv
	n := len(ts.y)
	alpha := s.alpha

	sig2 := hp.Signal * hp.Signal
	len2 := hp.Length * hp.Length
	noise2 := hp.Noise * hp.Noise
	cov := s.cov
	for i := 0; i < n; i++ {
		kinvRow := kinv.Row(i)
		covRow := cov.Row(i)
		wii := alpha[i]*alpha[i] - kinvRow[i]
		grad[0] += 0.5 * wii * (2 * sig2)   // diagonal K_SE = θ₀², r² = 0
		grad[2] += 0.5 * wii * (2 * noise2) // ∂C/∂log θ₂ lives on the diagonal
		for j := i + 1; j < n; j++ {
			w := 2 * (alpha[i]*alpha[j] - kinvRow[j]) // (i,j) and (j,i)
			kse := covRow[j]
			grad[0] += 0.5 * w * (2 * kse)
			grad[1] += 0.5 * w * (kse * ts.r2(i, j) / len2)
		}
	}
	return lz, grad, nil
}

// OptimizeML maximizes the log marginal likelihood with the same
// Polak–Ribière conjugate-gradient scheme Optimize uses for the LOO
// objective. The result's LOO field holds the final log marginal
// likelihood value.
func OptimizeML(x [][]float64, y []float64, init Hyper, maxIter int) (OptimizeResult, error) {
	if err := init.Validate(); err != nil {
		return OptimizeResult{}, err
	}
	if maxIter < 0 {
		return OptimizeResult{}, fmt.Errorf("gp: negative maxIter %d", maxIter)
	}
	res, err := ascend(directSet(x, y), init, maxIter, mlValueGrad)
	statOptimizeEvals.Add(uint64(res.Evals))
	return res, err
}

// objective is a (value, gradient) evaluator over log hyperparameters.
// The scratch carries every transient the evaluation needs; it is owned
// by the surrounding ascend() and reused across evaluations.
type objective func(ts trainSet, hp Hyper, s *evalScratch) (float64, [3]float64, error)

// ascend is the shared CG maximizer behind Optimize, OptimizeML and
// their Column variants. It acquires one evalScratch for the whole
// optimization and releases it on return — the deterministic join
// point for every buffer the line search touches.
func ascend(ts trainSet, init Hyper, maxIter int, obj objective) (OptimizeResult, error) {
	scr := newEvalScratch(len(ts.y))
	defer scr.release()

	psi := toLog(init).clamp()
	res := OptimizeResult{Hyper: psi.hyper()}

	f, g, err := obj(ts, psi.hyper(), scr)
	res.Evals++
	if err != nil {
		return res, err
	}
	res.LOO = f

	dir := g
	prevG := g
	for iter := 0; iter < maxIter; iter++ {
		gnorm := math.Sqrt(g[0]*g[0] + g[1]*g[1] + g[2]*g[2])
		if gnorm < 1e-7 {
			break
		}
		slope := g[0]*dir[0] + g[1]*dir[1] + g[2]*dir[2]
		if slope <= 0 {
			dir = g
			slope = gnorm * gnorm
		}
		step := 0.5
		var (
			fNew  float64
			gNew  [3]float64
			psNew logHyper
			ok    bool
		)
		for tries := 0; tries < 14; tries++ {
			cand := logHyper{psi[0] + step*dir[0], psi[1] + step*dir[1], psi[2] + step*dir[2]}.clamp()
			fc, gc, err := obj(ts, cand.hyper(), scr)
			res.Evals++
			if err == nil && !math.IsNaN(fc) && fc >= f+1e-4*step*slope {
				fNew, gNew, psNew, ok = fc, gc, cand, true
				break
			}
			step *= 0.5
		}
		if !ok {
			break
		}
		var num, den float64
		for i := 0; i < 3; i++ {
			num += gNew[i] * (gNew[i] - prevG[i])
			den += prevG[i] * prevG[i]
		}
		beta := 0.0
		if den > 0 {
			beta = num / den
			if beta < 0 {
				beta = 0
			}
		}
		for i := 0; i < 3; i++ {
			dir[i] = gNew[i] + beta*dir[i]
		}
		psi, f, g, prevG = psNew, fNew, gNew, gNew
		res.Hyper = psi.hyper()
		res.LOO = f
	}
	return res, nil
}
