package grb

// Monoid is an associative, commutative binary operator with an identity.
// Terminal, when non-nil, is an absorbing value enabling early exit (e.g. 1
// for logical OR): once a reduction reaches the terminal it cannot change.
type Monoid struct {
	Op       BinaryOp
	Identity float64
	Terminal *float64
}

func term(v float64) *float64 { return &v }

// LOrMonoid is logical OR, AnyPair's additive monoid.
var LOrMonoid = Monoid{Op: LOr, Identity: 0, Terminal: term(1)}

// Semiring pairs an additive monoid with a multiplicative operator.
// Structural marks semirings whose multiply ignores entry values (PAIR-based
// or boolean over boolean matrices); kernels then skip value arithmetic
// entirely and may early-exit per output, which is the fast path for
// adjacency traversal.
type Semiring struct {
	Name       string
	Add        Monoid
	Mul        BinaryOp
	Structural bool
}

// AnyPair is the traversal semiring the engine runs: any witness suffices.
var AnyPair = Semiring{Name: "any_pair", Add: LOrMonoid, Mul: Pair, Structural: true}
