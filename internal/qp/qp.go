// Package qp solves the constrained convex quadratic programs at the heart
// of Siesta's computation-proxy search (paper §2.4). The search problem
//
//	min_x  Σᵢ (1/tᵢ²)(bᵢ·x − tᵢ)²   s.t.  x ≥ 0,  x₁₁ ≥ Σ_{i=1..9} xᵢ
//
// is reduced to non-negative least squares by row scaling (the 1/tᵢ weights)
// and variable substitution (x₁₁ = s + Σx₁..₉, s ≥ 0). The NNLS core warm
// starts from a ridge-stabilised normal-equation solve and finishes with
// accelerated projected gradient descent, which tolerates the
// non-orthogonality of the predefined code blocks that the paper calls out.
package qp

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoConverge reports that the active-set iteration failed to terminate
// within its iteration budget.
var ErrNoConverge = errors.New("qp: NNLS did not converge")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{Rows: m.Rows, Cols: m.Cols, Data: append([]float64(nil), m.Data...)}
}

// MulVec returns m·x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("qp: MulVec dimension mismatch %d != %d", len(x), m.Cols))
	}
	y := make([]float64, m.Rows)
	m.mulVecInto(y, x)
	return y
}

// mulVecInto writes m·x into y, which has length m.Rows.
func (m *Matrix) mulVecInto(y, x []float64) {
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
}

// Residual returns b − m·x.
func (m *Matrix) Residual(x, b []float64) []float64 {
	y := m.MulVec(x)
	r := make([]float64, len(b))
	for i := range b {
		r[i] = b[i] - y[i]
	}
	return r
}

// ResidualNorm2 returns ‖b − m·x‖².
func (m *Matrix) ResidualNorm2(x, b []float64) float64 {
	return sumSquares(m.Residual(x, b))
}

// sumSquares returns Σ vᵢ².
func sumSquares(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return s
}

// solveSPD solves the symmetric positive-definite system G z = c in place by
// Cholesky decomposition, returning false if G is not numerically SPD.
func solveSPD(g [][]float64, c []float64) ([]float64, bool) {
	n := len(c)
	l := make([][]float64, n)
	for i := range l {
		l[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := g[i][j]
			for k := 0; k < j; k++ {
				sum -= l[i][k] * l[j][k]
			}
			if i == j {
				if sum <= 0 {
					return nil, false
				}
				l[i][i] = math.Sqrt(sum)
			} else {
				l[i][j] = sum / l[j][j]
			}
		}
	}
	// forward solve L y = c
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := c[i]
		for k := 0; k < i; k++ {
			sum -= l[i][k] * y[k]
		}
		y[i] = sum / l[i][i]
	}
	// back solve Lᵀ z = y
	z := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := y[i]
		for k := i + 1; k < n; k++ {
			sum -= l[k][i] * z[k]
		}
		z[i] = sum / l[i][i]
	}
	return z, true
}

// lsqSubset solves the unconstrained least squares min ‖A_P z − b‖ over the
// column subset P via ridge-stabilised normal equations.
func lsqSubset(a *Matrix, b []float64, p []int) []float64 {
	k := len(p)
	g := make([][]float64, k)
	for i := range g {
		g[i] = make([]float64, k)
	}
	c := make([]float64, k)
	for i := 0; i < k; i++ {
		for j := i; j < k; j++ {
			var s float64
			for r := 0; r < a.Rows; r++ {
				s += a.At(r, p[i]) * a.At(r, p[j])
			}
			g[i][j] = s
			g[j][i] = s
		}
		var s float64
		for r := 0; r < a.Rows; r++ {
			s += a.At(r, p[i]) * b[r]
		}
		c[i] = s
	}
	// Ridge escalation: the code blocks are deliberately non-orthogonal, so
	// the Gram matrix can be near-singular; escalate regularisation until
	// Cholesky succeeds. The ridge must scale with the Gram matrix itself
	// (weighted systems can have very small entries), never with an
	// absolute floor that might dominate the problem.
	var maxDiag float64
	for i := 0; i < k; i++ {
		if g[i][i] > maxDiag {
			maxDiag = g[i][i]
		}
	}
	ridge := 1e-12 * maxDiag
	if ridge <= 0 {
		ridge = 1e-300
	}
	for try := 0; try < 20; try++ {
		gr := make([][]float64, k)
		for i := range gr {
			gr[i] = append([]float64(nil), g[i]...)
			gr[i][i] += ridge
		}
		if z, ok := solveSPD(gr, c); ok {
			return z
		}
		ridge *= 100
	}
	// Degenerate beyond recovery: return zeros (caller's descent test
	// rejects non-improving steps).
	return make([]float64, k)
}

// NNLS solves min ‖A x − b‖² subject to x ≥ 0. The solver combines an
// active-set warm start (an unconstrained ridge solve clamped to the
// feasible set) with accelerated projected gradient descent (FISTA with
// adaptive restart), which converges unconditionally on this convex problem
// — including the deliberately collinear columns the paper's code blocks
// produce — where naive Lawson–Hanson active-set iterations can cycle. The
// returned x has length A.Cols.
func NNLS(a *Matrix, b []float64) ([]float64, error) {
	if len(b) != a.Rows {
		return nil, fmt.Errorf("qp: NNLS rhs length %d != rows %d", len(b), a.Rows)
	}
	n := a.Cols

	// Normalize columns to unit 2-norm: the paper's weighted systems mix
	// column scales across four orders of magnitude, which would cripple
	// first-order convergence. x ≥ 0 is invariant under positive column
	// scaling, so the solution denormalizes exactly.
	norms := make([]float64, n)
	an := NewMatrix(a.Rows, n)
	for j := 0; j < n; j++ {
		var s float64
		for i := 0; i < a.Rows; i++ {
			s += a.At(i, j) * a.At(i, j)
		}
		norms[j] = math.Sqrt(s)
		if norms[j] == 0 {
			norms[j] = 1 // zero column: coefficient is irrelevant
		}
		for i := 0; i < a.Rows; i++ {
			an.Set(i, j, a.At(i, j)/norms[j])
		}
	}

	// Lipschitz constant of the gradient: 2·λmax(AᵀA) via power iteration.
	lam := gramSpectralRadius(an)
	if lam <= 0 {
		return make([]float64, n), nil // zero matrix: anything fits equally
	}
	step := 1 / (2 * lam)

	// Warm start: clamped unconstrained ridge least squares.
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

	// Scratch for the residual and gradient, allocated once per call and
	// reused by every FISTA step; grad's result is valid until its next call.
	r := make([]float64, an.Rows)
	gBuf := make([]float64, n)
	residual := func(v []float64) []float64 {
		an.mulVecInto(r, v)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		return r
	}
	grad := func(v []float64) []float64 {
		residual(v)
		for j := 0; j < n; j++ {
			var s float64
			for i := 0; i < an.Rows; i++ {
				s += an.At(i, j) * r[i]
			}
			gBuf[j] = -2 * s
		}
		return gBuf
	}
	// Gradient scale at the origin, for the relative stopping criterion.
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
		// Projected gradient must vanish: g_j ≈ 0 where v_j > 0,
		// g_j ≥ 0 where v_j = 0.
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

	// FISTA with adaptive restart. x and xNew trade buffers each step.
	y := append([]float64(nil), x...)
	xNew := make([]float64, n)
	tMom := 1.0
	prevObj := sumSquares(residual(x))
	const maxIters = 500000
	for iter := 0; iter < maxIters; iter++ {
		g := grad(y)
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
		obj := sumSquares(residual(xNew))
		if obj > prevObj { // restart momentum on non-monotonicity
			copy(y, xNew)
			tNew = 1
		}
		x, xNew, tMom, prevObj = xNew, x, tNew, obj
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

// gramSpectralRadius estimates λmax(AᵀA) by power iteration.
func gramSpectralRadius(a *Matrix) float64 {
	n := a.Cols
	v := make([]float64, n)
	for j := range v {
		v[j] = 1
	}
	av := make([]float64, a.Rows)
	w := make([]float64, n)
	var lambda float64
	for it := 0; it < 200; it++ {
		// w = Aᵀ(A v)
		a.mulVecInto(av, v)
		for j := 0; j < n; j++ {
			var s float64
			for i := 0; i < a.Rows; i++ {
				s += a.At(i, j) * av[i]
			}
			w[j] = s
		}
		norm := math.Sqrt(sumSquares(w))
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

// WeightedNNLS solves the paper's relative-error objective: it scales row i
// of A and entry i of b by 1/tᵢ (skipping rows whose target is zero) and
// runs NNLS.
func WeightedNNLS(a *Matrix, t []float64) ([]float64, error) {
	if len(t) != a.Rows {
		return nil, fmt.Errorf("qp: target length %d != rows %d", len(t), a.Rows)
	}
	aw := a.Clone()
	bw := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		wgt := 0.0
		if t[i] != 0 {
			wgt = 1 / t[i]
		}
		for j := 0; j < a.Cols; j++ {
			aw.Set(i, j, a.At(i, j)*wgt)
		}
		bw[i] = t[i] * wgt // 1 for nonzero targets, 0 otherwise
	}
	return NNLS(aw, bw)
}
