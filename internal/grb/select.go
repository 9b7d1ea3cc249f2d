package grb

// This file holds the select / mask-apply kernels behind the engine's
// predicate pushdown: residual label predicates and index-backed property
// equalities are compiled into column masks and applied to result frontiers
// right after the MxMDelta evaluation, instead of being
// re-checked per record above the traversal.

// ColMask is a column predicate: keep(j) reports whether column j survives a
// select. Masks are built once per evaluation and applied to every entry of
// the frontier, so construction may precompute (index lookups, diagonal
// probes) while the per-entry check stays O(1)-ish.
type ColMask func(j Index) bool

// PointSource is any matrix exposing a point probe — both Matrix and
// DeltaMatrix qualify, so masks built from label matrices stay fold-free.
type PointSource interface {
	Has(i, j Index) bool
}

// DiagMask builds a column mask from the diagonal support of src (a label
// matrix): keep(j) iff src holds an entry at (j, j). Probes consult the
// delta structures directly, so buffered label writes are visible without a
// fold.
func DiagMask(src PointSource) ColMask {
	return func(j Index) bool { return src.Has(j, j) }
}

// IndexSetMask builds a column mask from an explicit id set (attribute-index
// seeds). A nil or empty set keeps nothing.
func IndexSetMask(ids []Index) ColMask {
	if len(ids) == 0 {
		return func(Index) bool { return false }
	}
	set := make(map[Index]struct{}, len(ids))
	for _, id := range ids {
		set[id] = struct{}{}
	}
	return func(j Index) bool {
		_, ok := set[j]
		return ok
	}
}

// AndMasks combines masks conjunctively. A single mask is returned as-is.
func AndMasks(masks []ColMask) ColMask {
	if len(masks) == 1 {
		return masks[0]
	}
	return func(j Index) bool {
		for _, m := range masks {
			if !m(j) {
				return false
			}
		}
		return true
	}
}

// SelectCols applies a column mask to m in place, deleting every entry whose
// column fails keep. The matrix must have no concurrent readers; the batched
// executor only calls this on freshly produced result frontiers, which it
// owns exclusively.
func SelectCols(m *Matrix, keep ColMask) {
	out := 0
	for i := 0; i < m.nrows; i++ {
		lo, hi := m.rowPtr[i], m.rowPtr[i+1]
		m.rowPtr[i] = out
		for k := lo; k < hi; k++ {
			if keep(m.colInd[k]) {
				m.colInd[out] = m.colInd[k]
				out++
			}
		}
	}
	m.rowPtr[m.nrows] = out
	m.colInd = m.colInd[:out]
}
