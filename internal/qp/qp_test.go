package qp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func matFromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		for j, v := range r {
			m.Set(i, j, v)
		}
	}
	return m
}

// gramSpectralRadius is the power iteration NNLS runs, on a matrix.
func gramSpectralRadius(a *Matrix) float64 {
	return newKernel(a).spectralRadius()
}

func TestMatrixBasics(t *testing.T) {
	m := matFromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatal("At/Set wrong")
	}
	k := newKernel(m)
	y := make([]float64, 2)
	dotRows(y, k.a, []float64{1, 1})
	if y[0] != 3 || y[1] != 7 {
		t.Fatalf("A·x: %v", y)
	}
	dotRows(y, k.at, []float64{1, 1})
	if y[0] != 4 || y[1] != 6 {
		t.Fatalf("Aᵀ·x: %v", y)
	}
	if res := k.residualNorm2(y, []float64{3, 8}, []float64{1, 1}); res != 1 || y[0] != 0 || y[1] != 1 {
		t.Fatalf("residual %v, norm² %v", y, res)
	}
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Fatal("Clone aliases data")
	}
}

func TestNNLSExactNonnegativeSolution(t *testing.T) {
	// Identity system: solution is b clamped at zero.
	a := matFromRows([][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}})
	x, err := NNLS(a, []float64{3, 0, 5})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 0, 5}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-8 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestNNLSClampsNegative(t *testing.T) {
	// Unconstrained solution would be negative; NNLS must clamp to 0.
	a := matFromRows([][]float64{{1}, {1}})
	x, err := NNLS(a, []float64{-1, -2})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 0 {
		t.Fatalf("x = %v, want 0", x)
	}
}

func TestNNLSOverdetermined(t *testing.T) {
	a := matFromRows([][]float64{{1, 1}, {1, 2}, {1, 3}})
	b := []float64{6, 9, 12} // exact: x = (3, 3)
	x, err := NNLS(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-6 || math.Abs(x[1]-3) > 1e-6 {
		t.Fatalf("x = %v, want (3,3)", x)
	}
}

func TestNNLSUnderdeterminedWideMatrix(t *testing.T) {
	// 2 equations, 5 unknowns — the shape of the paper's problem
	// (6 metrics, 11 blocks). Any solution must fit exactly.
	a := matFromRows([][]float64{
		{1, 2, 0, 1, 3},
		{0, 1, 4, 2, 1},
	})
	b := []float64{10, 8}
	x, err := NNLS(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res := refResidualNorm2(a, x, b); res > 1e-10 {
		t.Fatalf("residual %v too large; x = %v", res, x)
	}
	for _, v := range x {
		if v < 0 {
			t.Fatalf("negative component in %v", x)
		}
	}
}

func TestNNLSCollinearColumns(t *testing.T) {
	// Duplicated columns — the "non-orthogonal blocks" case the paper
	// says the search must tolerate.
	a := matFromRows([][]float64{
		{1, 1, 2},
		{2, 2, 1},
	})
	b := []float64{4, 5}
	x, err := NNLS(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res := refResidualNorm2(a, x, b); res > 1e-6 {
		t.Fatalf("residual %v too large for consistent system; x = %v", res, x)
	}
}

func TestNNLSZeroRHS(t *testing.T) {
	a := matFromRows([][]float64{{1, 2}, {3, 4}})
	x, err := NNLS(a, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 0 || x[1] != 0 {
		t.Fatalf("x = %v, want zeros", x)
	}
}

// TestNNLSKKTProperty checks the optimality conditions on random problems:
// the result is feasible, and no feasible perturbation improves it much.
func TestNNLSKKTProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		rows, cols := 2+rng.Intn(5), 2+rng.Intn(6)
		a := NewMatrix(rows, cols)
		for i := range a.Data {
			a.Data[i] = rng.Float64() * 10
		}
		b := make([]float64, rows)
		for i := range b {
			b[i] = rng.Float64() * 100
		}
		x, err := NNLS(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, v := range x {
			if v < 0 {
				t.Fatalf("trial %d: infeasible x = %v", trial, x)
			}
		}
		base := refResidualNorm2(a, x, b)
		// Probe coordinate steps: no feasible move should beat base
		// meaningfully (allowing tolerance for the ridge).
		const h = 1e-4
		for j := 0; j < cols; j++ {
			for _, dir := range []float64{h, -h} {
				xp := append([]float64(nil), x...)
				xp[j] += dir
				if xp[j] < 0 {
					continue
				}
				if refResidualNorm2(a, xp, b) < base-1e-6*(1+base) {
					t.Fatalf("trial %d: coordinate step improves objective — not optimal", trial)
				}
			}
		}
	}
}

func TestWeightedNNLSMatchesRelativeObjective(t *testing.T) {
	// With wildly different target magnitudes, the weighted solve must
	// balance relative (not absolute) errors.
	a := matFromRows([][]float64{
		{1e6, 0},
		{0, 1},
	})
	targets := []float64{2e6, 3}
	x, err := WeightedNNLS(a, targets)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-6 || math.Abs(x[1]-3) > 1e-6 {
		t.Fatalf("x = %v, want (2,3)", x)
	}
}

func TestWeightedNNLSSkipsZeroTargets(t *testing.T) {
	a := matFromRows([][]float64{
		{1, 0},
		{0, 1},
	})
	// Second target is zero: its row drops out of the objective, so the
	// solver is free there, but the first row must still be fit.
	x, err := WeightedNNLS(a, []float64{5, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-5) > 1e-6 {
		t.Fatalf("x = %v, want x0=5", x)
	}
}

func TestWeightedNNLSDimensionError(t *testing.T) {
	if _, err := WeightedNNLS(NewMatrix(2, 2), []float64{1}); err == nil {
		t.Fatal("dimension mismatch should error")
	}
	if _, err := NNLS(NewMatrix(2, 2), []float64{1}); err == nil {
		t.Fatal("dimension mismatch should error")
	}
}

func TestNNLSFeasibilityProperty(t *testing.T) {
	// Property: for random small systems, NNLS always returns finite,
	// non-negative solutions.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewMatrix(3, 4)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		b := []float64{rng.NormFloat64() * 10, rng.NormFloat64() * 10, rng.NormFloat64() * 10}
		x, err := NNLS(a, b)
		if err != nil {
			return false
		}
		for _, v := range x {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNNLSExtremeColumnScales(t *testing.T) {
	// Columns spanning 16 orders of magnitude: the normalization must
	// keep the solver convergent and exact on a consistent system.
	a := matFromRows([][]float64{
		{1e-8, 0, 2e8},
		{0, 3e-8, 1e8},
	})
	want := []float64{2e8, 1e8, 1e-8}
	b := refMulVec(a, want)
	x, err := NNLS(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res := refResidualNorm2(a, x, b); res > 1e-12*(1+normSq(b)) {
		t.Fatalf("residual %v too large; x = %v", res, x)
	}
}

func normSq(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return s
}

func TestNNLSZeroColumns(t *testing.T) {
	a := matFromRows([][]float64{
		{0, 1},
		{0, 2},
	})
	x, err := NNLS(a, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[1]-1) > 1e-8 {
		t.Fatalf("x = %v, want x1=1", x)
	}
}
