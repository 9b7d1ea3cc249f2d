package grb

// BinaryOp is a binary operator z = f(x, y) on float64 values.
// The Name identifies the op in plans, EXPLAIN output and tests.
type BinaryOp struct {
	Name string
	F    func(x, y float64) float64
}

// Built-in binary operators, mirroring the GrB_* predefined operators.
var (
	Plus   = BinaryOp{"plus", func(x, y float64) float64 { return x + y }}
	Minus  = BinaryOp{"minus", func(x, y float64) float64 { return x - y }}
	Times  = BinaryOp{"times", func(x, y float64) float64 { return x * y }}
	Div    = BinaryOp{"div", func(x, y float64) float64 { return x / y }}
	Min    = BinaryOp{"min", func(x, y float64) float64 { return min(x, y) }}
	Max    = BinaryOp{"max", func(x, y float64) float64 { return max(x, y) }}
	First  = BinaryOp{"first", func(x, _ float64) float64 { return x }}
	Second = BinaryOp{"second", func(_, y float64) float64 { return y }}
	// Pair (ONEB in GraphBLAS v2) returns 1 regardless of inputs; semirings
	// built on it are purely structural.
	Pair = BinaryOp{"pair", func(_, _ float64) float64 { return 1 }}

	LAnd = BinaryOp{"land", func(x, y float64) float64 { return b2f(x != 0 && y != 0) }}
	LOr  = BinaryOp{"lor", func(x, y float64) float64 { return b2f(x != 0 || y != 0) }}
	LXor = BinaryOp{"lxor", func(x, y float64) float64 { return b2f((x != 0) != (y != 0)) }}

	Eq = BinaryOp{"eq", func(x, y float64) float64 { return b2f(x == y) }}
	Ne = BinaryOp{"ne", func(x, y float64) float64 { return b2f(x != y) }}
	Lt = BinaryOp{"lt", func(x, y float64) float64 { return b2f(x < y) }}
	Le = BinaryOp{"le", func(x, y float64) float64 { return b2f(x <= y) }}
	Gt = BinaryOp{"gt", func(x, y float64) float64 { return b2f(x > y) }}
	Ge = BinaryOp{"ge", func(x, y float64) float64 { return b2f(x >= y) }}
)

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// UnaryOp is a unary operator z = f(x).
type UnaryOp struct {
	Name string
	F    func(x float64) float64
}

// Built-in unary operators.
var (
	IdentityOp = UnaryOp{"identity", func(x float64) float64 { return x }}
	AInv       = UnaryOp{"ainv", func(x float64) float64 { return -x }}
	MInv       = UnaryOp{"minv", func(x float64) float64 { return 1 / x }}
	LNot       = UnaryOp{"lnot", func(x float64) float64 { return b2f(x == 0) }}
	One        = UnaryOp{"one", func(_ float64) float64 { return 1 }}
	Abs        = UnaryOp{"abs", func(x float64) float64 {
		if x < 0 {
			return -x
		}
		return x
	}}
)

// IndexUnaryOp is a predicate f(i, j, v) used by SelectMatrix.
type IndexUnaryOp struct {
	Name string
	F    func(i, j Index, v float64) float64
}

// Built-in index-unary predicates for Select, mirroring GrB_TRIL and friends.
var (
	Tril    = IndexUnaryOp{"tril", func(i, j Index, _ float64) float64 { return b2f(j <= i) }}
	Triu    = IndexUnaryOp{"triu", func(i, j Index, _ float64) float64 { return b2f(j >= i) }}
	Diag    = IndexUnaryOp{"diag", func(i, j Index, _ float64) float64 { return b2f(i == j) }}
	OffDiag = IndexUnaryOp{"offdiag", func(i, j Index, _ float64) float64 { return b2f(i != j) }}
)

// ValueGE returns a Select predicate keeping entries >= s.
func ValueGE(s float64) IndexUnaryOp {
	return IndexUnaryOp{"valuege", func(_, _ Index, v float64) float64 { return b2f(v >= s) }}
}
