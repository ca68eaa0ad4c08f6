// Package sparse implements the compressed sparse row (CSR) matrices used
// by the flow and thermal solvers. Matrices are assembled through a
// coordinate-format Builder that accumulates duplicate entries, which
// matches the natural finite-volume assembly pattern (each conductance
// contributes to up to four entries).
package sparse

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Builder accumulates matrix entries in coordinate form. Duplicate
// (row, col) entries are summed when the builder is compiled to CSR.
type Builder struct {
	n          int
	rows, cols []int
	vals       []float64
}

// NewBuilder returns a builder for an n×n matrix.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// N returns the matrix dimension.
func (b *Builder) N() int { return b.n }

// Add accumulates v into entry (r, c).
func (b *Builder) Add(r, c int, v float64) {
	if r < 0 || r >= b.n || c < 0 || c >= b.n {
		panic(fmt.Sprintf("sparse: entry (%d,%d) outside %d x %d matrix", r, c, b.n, b.n))
	}
	if v == 0 {
		return
	}
	b.rows = append(b.rows, r)
	b.cols = append(b.cols, c)
	b.vals = append(b.vals, v)
}

// AddSym accumulates a symmetric conductance g between nodes i and j:
// +g on both diagonals, -g on both off-diagonals. This is the standard
// nodal-analysis stamp shared by the fluidic and thermal networks.
func (b *Builder) AddSym(i, j int, g float64) {
	b.Add(i, i, g)
	b.Add(j, j, g)
	b.Add(i, j, -g)
	b.Add(j, i, -g)
}

// Build compiles the accumulated entries into a CSR matrix. Triplets
// are bucketed by row with a counting sort (stable, so duplicates sum
// in assembly order) and each short row is column-ordered with an
// insertion sort — no comparison sort over the full entry list.
func (b *Builder) Build() *CSR {
	n := b.n
	nnz := len(b.vals)
	count := make([]int, n+1)
	for _, r := range b.rows {
		count[r+1]++
	}
	for i := 0; i < n; i++ {
		count[i+1] += count[i]
	}
	pos := append([]int(nil), count[:n]...)
	cols := make([]int, nnz)
	vals := make([]float64, nnz)
	for k := 0; k < nnz; k++ {
		p := pos[b.rows[k]]
		pos[b.rows[k]]++
		cols[p] = b.cols[k]
		vals[p] = b.vals[k]
	}
	m := &CSR{N: n, RowPtr: make([]int, n+1)}
	out := 0
	for i := 0; i < n; i++ {
		lo, hi := count[i], count[i+1]
		insertionSortRow(cols[lo:hi], vals[lo:hi])
		rowStart := out
		for k := lo; k < hi; k++ {
			if out > rowStart && cols[out-1] == cols[k] {
				vals[out-1] += vals[k]
			} else {
				cols[out] = cols[k]
				vals[out] = vals[k]
				out++
			}
		}
		m.RowPtr[i+1] = out
	}
	m.Cols = cols[:out:out]
	m.Vals = vals[:out:out]
	return m
}

// insertionSortRow orders one CSR row's (column, value) pairs by column.
// Rows of the finite-volume systems hold a handful of entries, where a
// stable insertion sort beats any general comparison sort.
func insertionSortRow(cols []int, vals []float64) {
	for i := 1; i < len(cols); i++ {
		c, v := cols[i], vals[i]
		j := i - 1
		for j >= 0 && cols[j] > c {
			cols[j+1] = cols[j]
			vals[j+1] = vals[j]
			j--
		}
		cols[j+1] = c
		vals[j+1] = v
	}
}

// CSR is a compressed sparse row matrix. Row i occupies
// Cols/Vals[RowPtr[i]:RowPtr[i+1]], with column indices strictly
// increasing inside each row.
type CSR struct {
	N      int
	RowPtr []int
	Cols   []int
	Vals   []float64

	// blk caches the sliced-row partition used by MulVecAuto, and stn the
	// stencil analysis of the pattern. Both depend only on RowPtr and Cols
	// (immutable after construction), so they are computed lazily and
	// shared across in-place value rewrites.
	blk atomic.Pointer[rowBlocks]
	stn atomic.Pointer[stencil]
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Vals) }

// MulVec computes dst = M*x. dst and x must have length N and must not
// alias.
func (m *CSR) MulVec(dst, x []float64) {
	if len(dst) != m.N || len(x) != m.N {
		panic(fmt.Sprintf("sparse: MulVec dimension mismatch: %d, %d vs N=%d", len(dst), len(x), m.N))
	}
	m.mulRows(dst, x, 0, m.N)
}

// Diag extracts the main diagonal. Missing diagonal entries are zero.
func (m *CSR) Diag() []float64 {
	d := make([]float64, m.N)
	for i := 0; i < m.N; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if m.Cols[k] == i {
				d[i] = m.Vals[k]
				break
			}
		}
	}
	return d
}

// At returns entry (r, c) using binary search within the row.
func (m *CSR) At(r, c int) float64 {
	lo, hi := m.RowPtr[r], m.RowPtr[r+1]
	k := sort.SearchInts(m.Cols[lo:hi], c) + lo
	if k < hi && m.Cols[k] == c {
		return m.Vals[k]
	}
	return 0
}

// Transpose returns M^T as a new CSR matrix.
func (m *CSR) Transpose() *CSR {
	t := &CSR{N: m.N, RowPtr: make([]int, m.N+1),
		Cols: make([]int, m.NNZ()), Vals: make([]float64, m.NNZ())}
	for _, c := range m.Cols {
		t.RowPtr[c+1]++
	}
	for i := 0; i < m.N; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	next := make([]int, m.N)
	copy(next, t.RowPtr[:m.N])
	for r := 0; r < m.N; r++ {
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			c := m.Cols[k]
			p := next[c]
			t.Cols[p] = r
			t.Vals[p] = m.Vals[k]
			next[c]++
		}
	}
	return t
}

// IsSymmetric reports whether |M - M^T| <= tol entrywise, relative to the
// largest absolute entry.
func (m *CSR) IsSymmetric(tol float64) bool {
	t := m.Transpose()
	var maxAbs float64
	for _, v := range m.Vals {
		if av := abs(v); av > maxAbs {
			maxAbs = av
		}
	}
	if maxAbs == 0 {
		return true
	}
	if t.NNZ() != m.NNZ() {
		return false
	}
	for i := 0; i < m.N; i++ {
		if m.RowPtr[i] != t.RowPtr[i] {
			return false
		}
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if m.Cols[k] != t.Cols[k] || abs(m.Vals[k]-t.Vals[k]) > tol*maxAbs {
				return false
			}
		}
	}
	return true
}

// Dense expands the matrix into a row-major dense [][]float64, for tests
// and tiny direct solves only.
func (m *CSR) Dense() [][]float64 {
	d := make([][]float64, m.N)
	for i := range d {
		d[i] = make([]float64, m.N)
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			d[i][m.Cols[k]] = m.Vals[k]
		}
	}
	return d
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
