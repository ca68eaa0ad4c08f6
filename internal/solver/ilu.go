package solver

import (
	"errors"

	"lcn3d/internal/sparse"
)

// ILU0 is a zero-fill incomplete LU preconditioner on the sparsity
// pattern of the matrix. For the symmetric flow matrix it degenerates to
// an incomplete Cholesky-like factorization; for the nonsymmetric thermal
// matrix it is the standard ILU(0).
//
// On the 7-point stencil of a layered grid (see newStencilLU), the factor
// is stored in st instead of the CSR fields.
type ILU0 struct {
	n      int
	rowPtr []int
	cols   []int
	vals   []float64 // combined L (strictly lower, unit diagonal) and U
	diag   []int     // index of the diagonal entry in each row
	st     *stencilLU
}

// NewILU0 factorizes the matrix pattern in place (IKJ variant). It
// returns an error if a zero pivot is met; callers then fall back to
// Jacobi.
func NewILU0(m *sparse.CSR) (*ILU0, error) {
	f, err := factorILU0(m)
	if err != nil {
		return nil, err
	}
	if off, ok := m.StencilOffsets(); ok {
		if f.st = newStencilLU(f, off); f.st != nil {
			f.rowPtr, f.cols, f.vals, f.diag = nil, nil, nil, nil
		}
	}
	return f, nil
}

// factorILU0 computes the factor in CSR form on m's pattern.
func factorILU0(m *sparse.CSR) (*ILU0, error) {
	n := m.N
	f := &ILU0{
		n:      n,
		rowPtr: m.RowPtr,
		cols:   m.Cols,
		vals:   make([]float64, len(m.Vals)),
		diag:   make([]int, n),
	}
	copy(f.vals, m.Vals)

	// Locate diagonals; require every row to have one.
	for i := 0; i < n; i++ {
		f.diag[i] = -1
		for k := f.rowPtr[i]; k < f.rowPtr[i+1]; k++ {
			if f.cols[k] == i {
				f.diag[i] = k
				break
			}
		}
		if f.diag[i] < 0 {
			return nil, errors.New("solver: ILU0 requires a full diagonal")
		}
	}

	// pos[j] maps column j to its entry index in the current row.
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	for i := 0; i < n; i++ {
		lo, hi := f.rowPtr[i], f.rowPtr[i+1]
		for k := lo; k < hi; k++ {
			pos[f.cols[k]] = k
		}
		for k := lo; k < hi; k++ {
			j := f.cols[k]
			if j >= i {
				break
			}
			pivot := f.vals[f.diag[j]]
			if pivot == 0 {
				return nil, errors.New("solver: ILU0 zero pivot")
			}
			lij := f.vals[k] / pivot
			f.vals[k] = lij
			// Subtract lij * row j (entries right of j) within pattern.
			for kk := f.diag[j] + 1; kk < f.rowPtr[j+1]; kk++ {
				if p := pos[f.cols[kk]]; p >= 0 {
					f.vals[p] -= lij * f.vals[kk]
				}
			}
		}
		if f.vals[f.diag[i]] == 0 {
			return nil, errors.New("solver: ILU0 zero pivot")
		}
		for k := lo; k < hi; k++ {
			pos[f.cols[k]] = -1
		}
	}
	return f, nil
}

// Apply solves (LU) z = r by forward then backward substitution.
func (f *ILU0) Apply(z, r []float64) {
	if f.st != nil {
		f.st.apply(z, r)
		return
	}
	copy(z, r)
	// Forward solve L y = r (unit diagonal).
	for i := 0; i < f.n; i++ {
		s := z[i]
		for k := f.rowPtr[i]; k < f.diag[i]; k++ {
			s -= f.vals[k] * z[f.cols[k]]
		}
		z[i] = s
	}
	// Backward solve U z = y.
	for i := f.n - 1; i >= 0; i-- {
		s := z[i]
		for k := f.diag[i] + 1; k < f.rowPtr[i+1]; k++ {
			s -= f.vals[k] * z[f.cols[k]]
		}
		z[i] = s / f.vals[f.diag[i]]
	}
}

// BestPrecond builds the strongest available preconditioner for the
// matrix: ILU(0) when the factorization succeeds, Jacobi otherwise.
func BestPrecond(m *sparse.CSR) Preconditioner {
	if f, err := NewILU0(m); err == nil {
		return f
	}
	return NewJacobi(m)
}
