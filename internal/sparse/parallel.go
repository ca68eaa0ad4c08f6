package sparse

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// parallelThreshold is the system size above which MulVecAuto fans out to
// worker goroutines. Small systems (2RM-scale) stay serial: goroutine
// overhead would dominate their sub-millisecond solves.
const parallelThreshold = 20000

// spmvWorkers caps the goroutines MulVecAuto fans out to. Zero means
// "use runtime.GOMAXPROCS(0)". Stored atomically so the cap can be tuned
// while solves are running (benchmarks sweep it).
var spmvWorkers int32

// spmvBlockNNZ is the target number of stored entries per row block of
// the sliced-CSR partition. Zero means defaultBlockNNZ. Stored atomically
// so the sweep benchmark can tune it live.
var spmvBlockNNZ int32

// defaultBlockNNZ is the tile size the worker/block sweep benchmark
// (BenchmarkBlockedSpMV) settles on for the banded 4RM-style patterns:
// large enough that a block amortizes the scheduling atomics, small
// enough that ~8 blocks per worker keep the dynamic schedule balanced
// when rows have uneven occupancy.
const defaultBlockNNZ = 16384

// SetSpMVWorkers sets the worker cap for parallel SpMV. n <= 0 restores
// the default (GOMAXPROCS). BenchmarkBlockedSpMV sweeps this to pick a
// cap for a given machine; on the 4RM systems (~10^5 rows) SpMV scales
// with the memory bandwidth, so GOMAXPROCS is the right default rather
// than a hard-coded core count.
func SetSpMVWorkers(n int) {
	if n < 0 {
		n = 0
	}
	atomic.StoreInt32(&spmvWorkers, int32(n))
}

// SpMVWorkers reports the effective worker cap.
func SpMVWorkers() int {
	if n := int(atomic.LoadInt32(&spmvWorkers)); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// SetSpMVBlockNNZ sets the target stored-entries-per-block of the sliced
// row partition. n <= 0 restores the default. Changing the target
// invalidates cached partitions lazily (each matrix rebuilds its blocking
// on the next MulVecAuto).
func SetSpMVBlockNNZ(n int) {
	if n < 0 {
		n = 0
	}
	atomic.StoreInt32(&spmvBlockNNZ, int32(n))
}

// SpMVBlockNNZ reports the effective block target.
func SpMVBlockNNZ() int {
	if n := int(atomic.LoadInt32(&spmvBlockNNZ)); n > 0 {
		return n
	}
	return defaultBlockNNZ
}

// rowBlocks is a sliced-CSR partition: bounds[b] .. bounds[b+1] is the
// row range of block b, cut so every block holds roughly the same number
// of stored entries. Equal-nnz blocks keep the dynamic schedule balanced
// when a ragged assembly makes row occupancy uneven, which equal-row
// chunking cannot.
type rowBlocks struct {
	target int // the SpMVBlockNNZ the partition was built for
	bounds []int32
}

// blocking returns the cached row partition, rebuilding it when the block
// target changed. The partition depends only on RowPtr, which is
// immutable after construction, so a stale read races benignly: both
// candidates are valid partitions and the pointer settles on one.
func (m *CSR) blocking() *rowBlocks {
	target := SpMVBlockNNZ()
	if bl := m.blk.Load(); bl != nil && bl.target == target {
		return bl
	}
	bl := &rowBlocks{target: target, bounds: []int32{0}}
	nextCut := target
	for i := 0; i < m.N; i++ {
		if m.RowPtr[i+1] >= nextCut {
			bl.bounds = append(bl.bounds, int32(i+1))
			nextCut = m.RowPtr[i+1] + target
		}
	}
	if last := bl.bounds[len(bl.bounds)-1]; int(last) != m.N {
		bl.bounds = append(bl.bounds, int32(m.N))
	}
	m.blk.Store(bl)
	return bl
}

// mulRows computes dst[i] = Σ_k Vals[k]·x[Cols[k]] for rows [lo, hi).
// It is the single SpMV kernel shared by the serial and parallel paths,
// so results are bitwise identical no matter how rows are scheduled
// across workers. On a stencil pattern the seven- and six-entry runs go
// through mulStencilRows and mulStencil6Rows, which sum in the generic
// loop's order.
func (m *CSR) mulRows(dst, x []float64, lo, hi int) {
	st := m.stencilPattern()
	runs := st.runs
	r := sort.Search(len(runs), func(j int) bool { return runs[j].hi > lo })
	for i := lo; i < hi; r++ {
		if r == len(runs) || runs[r].lo >= hi {
			m.mulGenericRows(dst, x, i, hi)
			return
		}
		a, b := max(runs[r].lo, i), min(runs[r].hi, hi)
		m.mulGenericRows(dst, x, i, a)
		if k := runs[r].skip; k == StencilWidth {
			m.mulStencilRows(dst, x, &st.off, a, b)
		} else {
			m.mulStencil6Rows(dst, x, &st.off6[k], a, b)
		}
		i = b
	}
}

// mulGenericRows is the row loop for any pattern, with 4-way unrolled
// accumulators.
func (m *CSR) mulGenericRows(dst, x []float64, lo, hi int) {
	vals, cols, rowPtr := m.Vals, m.Cols, m.RowPtr
	for i := lo; i < hi; i++ {
		k, end := rowPtr[i], rowPtr[i+1]
		var s0, s1, s2, s3 float64
		for ; k+4 <= end; k += 4 {
			s0 += vals[k] * x[cols[k]]
			s1 += vals[k+1] * x[cols[k+1]]
			s2 += vals[k+2] * x[cols[k+2]]
			s3 += vals[k+3] * x[cols[k+3]]
		}
		s := (s0 + s1) + (s2 + s3)
		for ; k < end; k++ {
			s += vals[k] * x[cols[k]]
		}
		dst[i] = s
	}
}

// MulVecAuto computes dst = M*x like MulVec, fanning out across CPUs for
// large matrices (the 4RM systems reach ~10^5 rows; SpMV dominates
// BiCGSTAB time). Work is dealt as equal-nnz row blocks from a shared
// cursor; each dst row is written by exactly one worker with the shared
// serial kernel, so the result is bitwise identical to MulVec for every
// worker count and block size.
func (m *CSR) MulVecAuto(dst, x []float64) {
	workers := SpMVWorkers()
	if m.N < parallelThreshold || workers < 2 {
		m.MulVec(dst, x)
		return
	}
	bl := m.blocking()
	nb := len(bl.bounds) - 1
	if workers > nb {
		workers = nb
	}
	if workers < 2 {
		m.MulVec(dst, x)
		return
	}
	var cursor atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b := int(cursor.Add(1)) - 1
				if b >= nb {
					return
				}
				m.mulRows(dst, x, int(bl.bounds[b]), int(bl.bounds[b+1]))
			}
		}()
	}
	wg.Wait()
}
