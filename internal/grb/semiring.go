package grb

import "fmt"

// Semiring names the semiring a product runs over. The kernels compute only
// the structural product, where any witness makes an entry and every entry
// is 1, so AnyPair is the one semiring they accept.
type Semiring struct {
	Name string
}

// AnyPair is the traversal semiring the engine runs: any witness suffices.
var AnyPair = Semiring{Name: "any_pair"}

// BinaryOp names an accumulator. It is only the type of the kernels' accum
// parameter: no kernel accumulates, so a non-nil one is rejected.
type BinaryOp struct {
	Name string
}

// requireStructural rejects the general GraphBLAS arguments still in the
// kernels' parameter lists: a mask, an accumulator or a semiring other than
// AnyPair. The kernels replace their output with the unmasked structural
// product. The check holds until ROADMAP item 6 (b) deletes the parameters.
func requireStructural(op string, masked bool, accum *BinaryOp, s Semiring) error {
	switch {
	case masked:
		return fmt.Errorf("%w: %s: a mask is not supported", ErrInvalidValue, op)
	case accum != nil:
		return fmt.Errorf("%w: %s: an accumulator is not supported", ErrInvalidValue, op)
	case s != AnyPair:
		return fmt.Errorf("%w: %s: semiring %q is not supported, only %q", ErrInvalidValue, op, s.Name, AnyPair.Name)
	}
	return nil
}
