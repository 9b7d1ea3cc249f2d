package grb

// BinaryOp is a binary operator z = f(x, y) on float64 values.
// The Name identifies the op in plans, EXPLAIN output and tests.
type BinaryOp struct {
	Name string
	F    func(x, y float64) float64
}

// Built-in binary operators, mirroring the GrB_* predefined operators.
var (
	// Pair (ONEB in GraphBLAS v2) returns 1 regardless of inputs; semirings
	// built on it are purely structural.
	Pair = BinaryOp{"pair", func(_, _ float64) float64 { return 1 }}
	// LOr is logical OR; the graph folds relation matrices with it.
	LOr = BinaryOp{"lor", func(x, y float64) float64 { return b2f(x != 0 || y != 0) }}
)

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
