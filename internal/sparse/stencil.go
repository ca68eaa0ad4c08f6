package sparse

import "sort"

// StencilWidth is the number of column offsets of a 7-point stencil
// pattern: the diagonal and the ±x, ±y, ±z neighbours of a layered grid.
const StencilWidth = 7

// stencil is the cached pattern analysis of a CSR matrix. A matrix is a
// stencil when every stored entry (i, j) has j - i in one set of exactly
// seven offsets and at least one row stores all seven — the 4RM thermal
// systems, whose unknowns are the basic cells of each layer, store
// offsets {0, ±1, ±NX, ±NX·NY}. Consecutive rows that store all seven
// offsets, or the same six of them, are grouped into runs; SpMV reads
// their values row-major and x through one offset window per stored
// offset, with no column-index loads. On a layered grid the full rows
// are the inner cells of the inner layers, and the six-offset runs the
// inner cells of the top and bottom layers and the y-edge lines of the
// inner layers.
type stencil struct {
	ok   bool
	off  [StencilWidth]int // ascending
	runs []stencilRun
	// off6[j] is off without off[j]: the offsets of a six-entry run.
	off6 [StencilWidth][StencilWidth - 1]int
}

// minSixRun is the shortest run of six-entry rows that takes the
// window kernel. The x-edge cells of an inner layer are single rows
// between two full-row runs; as runs of their own they cost a kernel
// call each and measure slower than the generic loop.
const minSixRun = 2

// stencilRun is a run of consecutive rows [lo, hi) that store the same
// offsets: all seven when skip == StencilWidth, else all but off[skip].
type stencilRun struct{ lo, hi, skip int }

// stencilPattern returns the cached pattern analysis, computing it on
// first use. Like the row blocking, it depends only on RowPtr and Cols,
// which are immutable after construction, so concurrent first uses race
// benignly: both compute the same analysis.
func (m *CSR) stencilPattern() *stencil {
	if st := m.stn.Load(); st != nil {
		return st
	}
	st := analyseStencil(m)
	m.stn.Store(st)
	return st
}

// analyseStencil collects the distinct column offsets of m in one pass
// over the pattern, giving up at the eighth, and then finds the runs of
// rows that store all seven offsets, and the runs of at least minSixRun
// rows that store the same six.
func analyseStencil(m *CSR) *stencil {
	st := &stencil{}
	var off [StencilWidth]int
	n := 0
	for i := 0; i < m.N; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			d := m.Cols[k] - i
			j := 0
			for j < n && off[j] != d {
				j++
			}
			if j == n {
				if n == StencilWidth {
					return st
				}
				off[n] = d
				n++
			}
		}
	}
	if n != StencilWidth {
		return st
	}
	sort.Ints(off[:])
	full := false
	for i := 0; i < m.N; {
		skip := rowSkip(m, i, &off)
		j := i + 1
		for j < m.N && rowSkip(m, j, &off) == skip {
			j++
		}
		if skip == StencilWidth || skip >= 0 && j-i >= minSixRun {
			st.runs = append(st.runs, stencilRun{i, j, skip})
			full = full || skip == StencilWidth
		}
		i = j
	}
	// A pattern where no row stores all seven offsets is a sparser graph
	// that happens to use seven (a 2D channel network's flow matrix, say),
	// not a stencil.
	if !full {
		return &stencil{}
	}
	st.ok, st.off = true, off
	for j := range st.off6 {
		copy(st.off6[j][:j], off[:j])
		copy(st.off6[j][j:], off[j+1:])
	}
	return st
}

// rowSkip classifies row i of a matrix whose offsets are all in off: it
// returns StencilWidth when the row stores all seven offsets in ascending
// column order, j when it stores all but off[j] in that order, and -1
// otherwise.
func rowSkip(m *CSR, i int, off *[StencilWidth]int) int {
	k, end := m.RowPtr[i], m.RowPtr[i+1]
	skip := -1
	switch end - k {
	case StencilWidth:
		skip = StencilWidth
	case StencilWidth - 1:
	default:
		return -1
	}
	for j := 0; j < StencilWidth; j++ {
		if k < end && m.Cols[k]-i == off[j] {
			k++
		} else if skip == -1 {
			skip = j
		} else {
			return -1
		}
	}
	return skip
}

// StencilOffsets reports the seven column offsets, ascending, when the
// pattern is a 7-point stencil: every stored entry (i, j) has j - i in
// one set of seven offsets, and at least one row stores all seven. Other
// rows may store any subset of them.
func (m *CSR) StencilOffsets() (off [StencilWidth]int, ok bool) {
	st := m.stencilPattern()
	return st.off, st.ok
}

// mulStencilRows computes dst[i] for rows [lo, hi) of one full-row run,
// whose offsets are off.
// The summation order is the generic kernel's for a seven-entry row —
// four accumulators over entries 0-3, then entries 4-6 in sequence — so
// the result is bitwise identical to it.
func (m *CSR) mulStencilRows(dst, x []float64, off *[StencilWidth]int, lo, hi int) {
	d := dst[lo:hi]
	n := len(d)
	v := m.Vals[m.RowPtr[lo]:m.RowPtr[hi]]
	v = v[:StencilWidth*n]
	x0 := x[lo+off[0] : hi+off[0]][:n]
	x1 := x[lo+off[1] : hi+off[1]][:n]
	x2 := x[lo+off[2] : hi+off[2]][:n]
	x3 := x[lo+off[3] : hi+off[3]][:n]
	x4 := x[lo+off[4] : hi+off[4]][:n]
	x5 := x[lo+off[5] : hi+off[5]][:n]
	x6 := x[lo+off[6] : hi+off[6]][:n]
	for t := range d {
		r := v[StencilWidth*t : StencilWidth*t+StencilWidth : StencilWidth*t+StencilWidth]
		var s0, s1, s2, s3 float64
		s0 += r[0] * x0[t]
		s1 += r[1] * x1[t]
		s2 += r[2] * x2[t]
		s3 += r[3] * x3[t]
		s := (s0 + s1) + (s2 + s3)
		s += r[4] * x4[t]
		s += r[5] * x5[t]
		s += r[6] * x6[t]
		d[t] = s
	}
}

// mulStencil6Rows computes dst[i] for rows [lo, hi) of one six-entry run,
// whose offsets are off. It sums in the generic kernel's order for a
// six-entry row — four accumulators over entries 0-3, then entries 4 and
// 5 in sequence — so the result is bitwise identical to it.
func (m *CSR) mulStencil6Rows(dst, x []float64, off *[StencilWidth - 1]int, lo, hi int) {
	const w = StencilWidth - 1
	d := dst[lo:hi]
	n := len(d)
	v := m.Vals[m.RowPtr[lo]:m.RowPtr[hi]]
	v = v[:w*n]
	x0 := x[lo+off[0] : hi+off[0]][:n]
	x1 := x[lo+off[1] : hi+off[1]][:n]
	x2 := x[lo+off[2] : hi+off[2]][:n]
	x3 := x[lo+off[3] : hi+off[3]][:n]
	x4 := x[lo+off[4] : hi+off[4]][:n]
	x5 := x[lo+off[5] : hi+off[5]][:n]
	for t := range d {
		r := v[w*t : w*t+w : w*t+w]
		var s0, s1, s2, s3 float64
		s0 += r[0] * x0[t]
		s1 += r[1] * x1[t]
		s2 += r[2] * x2[t]
		s3 += r[3] * x3[t]
		s := (s0 + s1) + (s2 + s3)
		s += r[4] * x4[t]
		s += r[5] * x5[t]
		d[t] = s
	}
}
