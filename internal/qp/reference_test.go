package qp

import (
	"math"
	"math/rand"
	"testing"
)

// This file freezes the allocating FISTA solver NNLS replaced: refNNLS and
// refGramSpectralRadius are its NNLS and gramSpectralRadius, with the matrix
// products they called inlined as refMulVec and refResidual. The buffered
// solver must reproduce them to the bit: same arithmetic, same order.

func refMulVec(m *Matrix, x []float64) []float64 {
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

func refResidual(m *Matrix, x, b []float64) []float64 {
	y := refMulVec(m, x)
	r := make([]float64, len(b))
	for i := range b {
		r[i] = b[i] - y[i]
	}
	return r
}

func refResidualNorm2(m *Matrix, x, b []float64) float64 {
	r := refResidual(m, x, b)
	var s float64
	for _, v := range r {
		s += v * v
	}
	return s
}

func refNNLS(a *Matrix, b []float64) ([]float64, error) {
	n := a.Cols
	norms := make([]float64, n)
	an := NewMatrix(a.Rows, n)
	for j := 0; j < n; j++ {
		var s float64
		for i := 0; i < a.Rows; i++ {
			s += a.At(i, j) * a.At(i, j)
		}
		norms[j] = math.Sqrt(s)
		if norms[j] == 0 {
			norms[j] = 1
		}
		for i := 0; i < a.Rows; i++ {
			an.Set(i, j, a.At(i, j)/norms[j])
		}
	}
	lam := refGramSpectralRadius(an)
	if lam <= 0 {
		return make([]float64, n), nil
	}
	step := 1 / (2 * lam)
	all := make([]int, n)
	for j := range all {
		all[j] = j
	}
	x := lsqSubset(an, b, all)
	for j := range x {
		if x[j] < 0 || math.IsNaN(x[j]) || math.IsInf(x[j], 0) {
			x[j] = 0
		}
	}
	grad := func(v []float64) []float64 {
		r := refResidual(an, v, b)
		g := make([]float64, n)
		for j := 0; j < n; j++ {
			var s float64
			for i := 0; i < an.Rows; i++ {
				s += an.At(i, j) * r[i]
			}
			g[j] = -2 * s
		}
		return g
	}
	gradScale := 0.0
	for _, v := range grad(make([]float64, n)) {
		if av := math.Abs(v); av > gradScale {
			gradScale = av
		}
	}
	if gradScale == 0 {
		return make([]float64, n), nil
	}
	converged := func(v []float64) bool {
		for j, gj := range grad(v) {
			pg := gj
			if v[j] <= 0 && pg > 0 {
				pg = 0
			}
			if math.Abs(pg) > 1e-9*gradScale {
				return false
			}
		}
		return true
	}
	y := append([]float64(nil), x...)
	tMom := 1.0
	prevObj := refResidualNorm2(an, x, b)
	const maxIters = 500000
	for iter := 0; iter < maxIters; iter++ {
		g := grad(y)
		xNew := make([]float64, n)
		for j := 0; j < n; j++ {
			v := y[j] - step*g[j]
			if v < 0 {
				v = 0
			}
			xNew[j] = v
		}
		tNew := (1 + math.Sqrt(1+4*tMom*tMom)) / 2
		for j := 0; j < n; j++ {
			y[j] = xNew[j] + (tMom-1)/tNew*(xNew[j]-x[j])
			if y[j] < 0 {
				y[j] = 0
			}
		}
		obj := refResidualNorm2(an, xNew, b)
		if obj > prevObj {
			copy(y, xNew)
			tNew = 1
		}
		x, tMom, prevObj = xNew, tNew, obj
		if iter%64 == 63 && converged(x) {
			break
		}
	}
	if !converged(x) {
		return nil, ErrNoConverge
	}
	for j := range x {
		x[j] /= norms[j]
	}
	return x, nil
}

func refGramSpectralRadius(a *Matrix) float64 {
	n := a.Cols
	v := make([]float64, n)
	for j := range v {
		v[j] = 1
	}
	var lambda float64
	for it := 0; it < 200; it++ {
		av := refMulVec(a, v)
		w := make([]float64, n)
		for j := 0; j < n; j++ {
			var s float64
			for i := 0; i < a.Rows; i++ {
				s += a.At(i, j) * av[i]
			}
			w[j] = s
		}
		var norm float64
		for _, x := range w {
			norm += x * x
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return 0
		}
		lambda = norm
		for j := range w {
			v[j] = w[j] / norm
		}
	}
	return lambda
}

// weightedSystem draws a computation-proxy-shaped system: rows×cols with
// column scales spread over four orders of magnitude, the first cols-2
// columns coupled to the last the way blocks.Search substitutes the
// wrapper, and rows scaled by 1/t as WeightedNNLS does.
func weightedSystem(rng *rand.Rand, rows, cols int) (*Matrix, []float64) {
	a := NewMatrix(rows, cols)
	for j := 0; j < cols; j++ {
		scale := math.Pow(10, 4*rng.Float64())
		for i := 0; i < rows; i++ {
			a.Set(i, j, scale*rng.Float64())
		}
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols-2; j++ {
			a.Set(i, j, a.At(i, j)+a.At(i, cols-1))
		}
	}
	b := make([]float64, rows)
	for i := 0; i < rows; i++ {
		t := (0.5 + rng.Float64()) * 1e5 * float64(i+1)
		if rng.Intn(8) == 0 {
			t = 0
		}
		wgt := 0.0
		if t != 0 {
			wgt = 1 / t
		}
		for j := 0; j < cols; j++ {
			a.Set(i, j, a.At(i, j)*wgt)
		}
		b[i] = t * wgt
	}
	return a, b
}

func TestNNLSMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	shapes := [][2]int{{7, 11}, {7, 11}, {3, 4}, {5, 5}, {11, 7}}
	for k := 0; k < 60; k++ {
		sh := shapes[k%len(shapes)]
		a, b := weightedSystem(rng, sh[0], sh[1])
		if got, want := gramSpectralRadius(a), refGramSpectralRadius(a); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("system %d: gramSpectralRadius = %v, reference %v", k, got, want)
		}
		got, gotErr := NNLS(a, b)
		want, wantErr := refNNLS(a, b)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("system %d: error %v, reference %v", k, gotErr, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("system %d: %d coefficients, reference %d", k, len(got), len(want))
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("system %d: x[%d] = %v, reference %v", k, j, got[j], want[j])
			}
		}
	}
}

// TestNNLSAllocsIndependentOfIterations pins that NNLS allocates per call,
// not per FISTA step: a system whose clamped warm start is already optimal
// (it stops at the first convergence check) and one whose optimum lies on a
// near-singular face (hundreds of steps) allocate the same. The reference,
// which allocates every step, proves the two step counts differ.
func TestNNLSAllocsIndependentOfIterations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	easy := matFromRows([][]float64{{1, 0, 0}, {0, 2, 0}, {0, 0, 3}})
	hard := matFromRows([][]float64{{1, 1, 0.6266}, {1, 0.9999, 0.4602}, {0.0756, 0.774, 0.327}})
	b := []float64{1, -2, 3}
	allocs := func(solve func(*Matrix, []float64) ([]float64, error), a *Matrix) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := solve(a, b); err != nil {
				t.Fatal(err)
			}
		})
	}
	refEasy, refHard := allocs(refNNLS, easy), allocs(refNNLS, hard)
	if refHard < 3*refEasy {
		t.Fatalf("reference allocs %.0f (easy) and %.0f (hard): the systems no longer differ in step count", refEasy, refHard)
	}
	gotEasy, gotHard := allocs(NNLS, easy), allocs(NNLS, hard)
	t.Logf("NNLS allocs: %.0f easy, %.0f hard (reference %.0f, %.0f)", gotEasy, gotHard, refEasy, refHard)
	if gotEasy != gotHard {
		t.Errorf("NNLS allocs depend on iterations: %.0f easy, %.0f hard", gotEasy, gotHard)
	}
}
