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

// ErrNoConverge reports that the FISTA iteration failed to reach a
// stationary point within its iteration budget.
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
	x, _, err := nnls(a, b)
	return x, err
}

// nnls is NNLS, also reporting how many FISTA steps it took.
func nnls(a *Matrix, b []float64) (x []float64, steps int, err error) {
	if len(b) != a.Rows {
		return nil, 0, fmt.Errorf("qp: NNLS rhs length %d != rows %d", len(b), a.Rows)
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

	k := newKernel(an)

	// Lipschitz constant of the gradient: 2·λmax(AᵀA) via power iteration.
	lam := k.spectralRadius()
	if lam <= 0 {
		return make([]float64, n), 0, nil // zero matrix: anything fits equally
	}
	step := 1 / (2 * lam)

	// Warm start: clamped unconstrained ridge least squares.
	all := make([]int, n)
	for j := range all {
		all[j] = j
	}
	x = lsqSubset(an, b, all)
	for j := range x {
		if x[j] < 0 || math.IsNaN(x[j]) || math.IsInf(x[j], 0) {
			x[j] = 0
		}
	}

	// Scratch for the residual and gradient, allocated once per call and
	// reused by every FISTA step.
	r := make([]float64, an.Rows)
	g := make([]float64, n)
	// Gradient scale at the origin, for the relative stopping criterion.
	k.gradient(g, r, b, make([]float64, n))
	gradScale := 0.0
	for _, v := range g {
		if av := math.Abs(v); av > gradScale {
			gradScale = av
		}
	}
	if gradScale == 0 {
		return make([]float64, n), 0, nil
	}
	tol := 1e-9 * gradScale

	// FISTA with adaptive restart. x and xNew trade buffers each step.
	y := append([]float64(nil), x...)
	xNew := make([]float64, n)
	tMom := 1.0
	prevObj := k.residualNorm2(r, b, x)
	const maxIters = 500000
	for steps < maxIters {
		steps++
		k.gradient(g, r, b, y)
		for j, gj := range g {
			v := y[j] - step*gj
			if v < 0 {
				v = 0
			}
			xNew[j] = v
		}
		tNew := (1 + math.Sqrt(1+4*tMom*tMom)) / 2
		mom := (tMom - 1) / tNew
		for j, xj := range xNew {
			v := xj + mom*(xj-x[j])
			if v < 0 {
				v = 0
			}
			y[j] = v
		}
		obj := k.residualNorm2(r, b, xNew)
		if obj > prevObj { // restart momentum on non-monotonicity
			copy(y, xNew)
			tNew = 1
		}
		x, xNew, tMom, prevObj = xNew, x, tNew, obj
		// r holds b − A·x, so the gradient at x needs only Aᵀr.
		if steps%64 == 0 && stationary(k.gradientFrom(g, r), x, tol) {
			break
		}
	}
	k.gradient(g, r, b, x)
	if !stationary(g, x, tol) {
		return nil, steps, ErrNoConverge
	}
	for j := range x {
		x[j] /= norms[j]
	}
	return x, steps, nil
}

// stationary reports whether the projected gradient vanishes at v:
// g_j ≈ 0 where v_j > 0, and g_j ≥ 0 where v_j = 0.
func stationary(g, v []float64, tol float64) bool {
	for j, gj := range g {
		pg := gj
		if v[j] <= 0 && pg > 0 {
			pg = 0
		}
		if math.Abs(pg) > tol {
			return false
		}
	}
	return true
}

// kernel holds a matrix A for NNLS's inner loops, row-major (a) and
// transposed (at), so that both A·v and Aᵀ·r are dot products over
// contiguous rows. Every product sums in the order of the plain loops it
// replaced (A·v over ascending columns, Aᵀ·r over ascending rows), so each
// result is bit-identical to theirs; see dotRows.
type kernel struct {
	rows, cols int
	a, at      []float64
}

func newKernel(m *Matrix) *kernel {
	at := make([]float64, len(m.Data))
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			at[j*m.Rows+i] = m.Data[i*m.Cols+j]
		}
	}
	return &kernel{rows: m.Rows, cols: m.Cols, a: m.Data, at: at}
}

// dotRows sets y[i] = Σₖ m[i·len(x)+k]·x[k] for every i < len(y). Rows
// run in exact blocks of six, then at most one block each of four, two
// and one — the 6×11 search matrix is one block of six, its transpose
// six, four and one — each row in its own accumulator that sums k in
// ascending order exactly as a one-row loop does, so the result is
// bit-identical to one: the blocking only lets independent add chains
// overlap, and no row is computed twice.
func dotRows(y, m, x []float64) {
	n, i := len(x), 0
	for ; i+6 <= len(y); i += 6 {
		m0, m1, m2 := m[i*n:][:n], m[(i+1)*n:][:n], m[(i+2)*n:][:n]
		m3, m4, m5 := m[(i+3)*n:][:n], m[(i+4)*n:][:n], m[(i+5)*n:][:n]
		var s0, s1, s2, s3, s4, s5 float64
		for k, xk := range x {
			s0 += m0[k] * xk
			s1 += m1[k] * xk
			s2 += m2[k] * xk
			s3 += m3[k] * xk
			s4 += m4[k] * xk
			s5 += m5[k] * xk
		}
		y[i], y[i+1], y[i+2], y[i+3], y[i+4], y[i+5] = s0, s1, s2, s3, s4, s5
	}
	if i+4 <= len(y) {
		m0, m1, m2, m3 := m[i*n:][:n], m[(i+1)*n:][:n], m[(i+2)*n:][:n], m[(i+3)*n:][:n]
		var s0, s1, s2, s3 float64
		for k, xk := range x {
			s0 += m0[k] * xk
			s1 += m1[k] * xk
			s2 += m2[k] * xk
			s3 += m3[k] * xk
		}
		y[i], y[i+1], y[i+2], y[i+3] = s0, s1, s2, s3
		i += 4
	}
	if i+2 <= len(y) {
		m0, m1 := m[i*n:][:n], m[(i+1)*n:][:n]
		var s0, s1 float64
		for k, xk := range x {
			s0 += m0[k] * xk
			s1 += m1[k] * xk
		}
		y[i], y[i+1] = s0, s1
		i += 2
	}
	if i < len(y) {
		m0 := m[i*n:][:n]
		var s0 float64
		for k, xk := range x {
			s0 += m0[k] * xk
		}
		y[i] = s0
	}
}

// residualNorm2 writes b − A·v into r and returns ‖r‖², summed in row
// order as sumSquares does.
func (k *kernel) residualNorm2(r, b, v []float64) float64 {
	dotRows(r, k.a, v)
	var s float64
	for i, bi := range b[:len(r)] {
		d := bi - r[i]
		r[i] = d
		s += d * d
	}
	return s
}

// gradient writes ∇‖b − A·v‖² = −2·Aᵀ(b − A·v) into g, leaving b − A·v
// in r.
func (k *kernel) gradient(g, r, b, v []float64) {
	k.residualNorm2(r, b, v)
	k.gradientFrom(g, r)
}

// gradientFrom writes −2·Aᵀr into g and returns g.
func (k *kernel) gradientFrom(g, r []float64) []float64 {
	dotRows(g, k.at, r)
	for j, s := range g {
		g[j] = -2 * s
	}
	return g
}

// spectralRadius estimates λmax(AᵀA) by power iteration.
func (k *kernel) spectralRadius() float64 {
	v := make([]float64, k.cols)
	for j := range v {
		v[j] = 1
	}
	av := make([]float64, k.rows)
	w := make([]float64, k.cols)
	var lambda float64
	for it := 0; it < 200; it++ {
		// w = Aᵀ(A v)
		dotRows(av, k.a, v)
		dotRows(w, k.at, av)
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
	return NNLS(weightRows(a, t))
}

// weightRows returns A with row i scaled by 1/tᵢ (0 where tᵢ = 0), and the
// matching right-hand side: 1 for nonzero targets, 0 otherwise.
func weightRows(a *Matrix, t []float64) (*Matrix, []float64) {
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
	return aw, bw
}
