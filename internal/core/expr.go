package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"redisgraph/internal/cypher"
	"redisgraph/internal/graph"
	"redisgraph/internal/value"
)

// evalFn evaluates a compiled scalar expression against a record.
type evalFn func(ctx *execCtx, r record) (value.Value, error)

// compareValues applies one Cypher comparison operator. Comparing with null
// (or incomparable types) yields null, except that = and <> on incomparable
// non-null types are simply false/true. This is the single source of the
// comparison semantics: both the interpreted filter path and the pushdown
// kernels (cmpKeep) go through it, so pushed and residual predicates can
// never disagree.
func compareValues(op string, lv, rv value.Value) value.Value {
	c, ok := lv.Compare(rv)
	if !ok {
		if lv.IsNull() || rv.IsNull() {
			return value.Null
		}
		switch op {
		case "=":
			return value.NewBool(false)
		case "<>":
			return value.NewBool(true)
		}
		return value.Null
	}
	switch op {
	case "=":
		return value.NewBool(c == 0)
	case "<>":
		return value.NewBool(c != 0)
	case "<":
		return value.NewBool(c < 0)
	case "<=":
		return value.NewBool(c <= 0)
	case ">":
		return value.NewBool(c > 0)
	default:
		return value.NewBool(c >= 0)
	}
}

// compileExpr translates an AST expression into an evaluator closure bound
// to the given symbol table.
func compileExpr(e cypher.Expr, st *symtab) (evalFn, error) {
	switch e := e.(type) {
	case *cypher.Literal:
		v := e.V
		return func(*execCtx, record) (value.Value, error) { return v, nil }, nil

	case *cypher.Param:
		name := e.Name
		return func(ctx *execCtx, _ record) (value.Value, error) {
			v, ok := ctx.params[name]
			if !ok {
				return value.Null, fmt.Errorf("missing parameter $%s", name)
			}
			return v, nil
		}, nil

	case *cypher.Ident:
		slot, ok := st.lookup(e.Name)
		if !ok {
			return nil, fmt.Errorf("undefined variable %q", e.Name)
		}
		return func(_ *execCtx, r record) (value.Value, error) {
			if slot >= len(r) {
				return value.Null, nil
			}
			return r[slot], nil
		}, nil

	case *cypher.PropAccess:
		inner, err := compileExpr(e.E, st)
		if err != nil {
			return nil, err
		}
		key := e.Key
		return func(ctx *execCtx, r record) (value.Value, error) {
			v, err := inner(ctx, r)
			if err != nil {
				return value.Null, err
			}
			// Interpreted read: the attribute name resolves per row (so it
			// tracks schema growth inside a write query) and the column cell
			// comes back boxed.
			switch v.Kind {
			case value.KindNull:
				return value.Null, nil
			case value.KindNode:
				return ctx.g.NodePropertyColumnar(v.ID, key), nil
			case value.KindEdge:
				return ctx.g.EdgeProperty(v.ID, key), nil
			}
			return value.Null, fmt.Errorf("type mismatch: expected node or edge for property access, got %s", v.Kind)
		}, nil

	case *cypher.ListExpr:
		items := make([]evalFn, len(e.Items))
		for i, it := range e.Items {
			f, err := compileExpr(it, st)
			if err != nil {
				return nil, err
			}
			items[i] = f
		}
		return func(ctx *execCtx, r record) (value.Value, error) {
			out := make([]value.Value, len(items))
			for i, f := range items {
				v, err := f(ctx, r)
				if err != nil {
					return value.Null, err
				}
				out[i] = v
			}
			return value.NewArray(out), nil
		}, nil

	case *cypher.IndexExpr:
		list, err := compileExpr(e.E, st)
		if err != nil {
			return nil, err
		}
		idx, err := compileExpr(e.Idx, st)
		if err != nil {
			return nil, err
		}
		return func(ctx *execCtx, r record) (value.Value, error) {
			lv, err := list(ctx, r)
			if err != nil {
				return value.Null, err
			}
			iv, err := idx(ctx, r)
			if err != nil {
				return value.Null, err
			}
			if lv.Kind != value.KindArray || iv.Kind != value.KindInt {
				return value.Null, nil
			}
			a := lv.Array()
			i := int(iv.Int())
			if i < 0 {
				i += len(a)
			}
			if i < 0 || i >= len(a) {
				return value.Null, nil
			}
			return a[i], nil
		}, nil

	case *cypher.UnaryExpr:
		inner, err := compileExpr(e.E, st)
		if err != nil {
			return nil, err
		}
		switch e.Op {
		case "NOT":
			return func(ctx *execCtx, r record) (value.Value, error) {
				v, err := inner(ctx, r)
				if err != nil {
					return value.Null, err
				}
				if v.IsNull() {
					return value.Null, nil
				}
				if v.Kind != value.KindBool {
					return value.Null, fmt.Errorf("type mismatch: NOT expects boolean, got %s", v.Kind)
				}
				return value.NewBool(!v.Bool()), nil
			}, nil
		case "-":
			return func(ctx *execCtx, r record) (value.Value, error) {
				v, err := inner(ctx, r)
				if err != nil {
					return value.Null, err
				}
				switch v.Kind {
				case value.KindNull:
					return value.Null, nil
				case value.KindInt:
					return value.NewInt(-v.Int()), nil
				case value.KindFloat:
					return value.NewFloat(-v.Float()), nil
				}
				return value.Null, fmt.Errorf("type mismatch: cannot negate %s", v.Kind)
			}, nil
		}
		return nil, fmt.Errorf("unknown unary operator %q", e.Op)

	case *cypher.IsNullExpr:
		inner, err := compileExpr(e.E, st)
		if err != nil {
			return nil, err
		}
		negate := e.Negate
		return func(ctx *execCtx, r record) (value.Value, error) {
			v, err := inner(ctx, r)
			if err != nil {
				return value.Null, err
			}
			return value.NewBool(v.IsNull() != negate), nil
		}, nil

	case *cypher.BinaryExpr:
		return compileBinary(e, st)

	case *cypher.FuncCall:
		return compileFunc(e, st)
	}
	return nil, fmt.Errorf("unsupported expression %T", e)
}

func compileBinary(e *cypher.BinaryExpr, st *symtab) (evalFn, error) {
	l, err := compileExpr(e.L, st)
	if err != nil {
		return nil, err
	}
	r, err := compileExpr(e.R, st)
	if err != nil {
		return nil, err
	}
	op := e.Op
	switch op {
	case "AND", "OR", "XOR":
		return func(ctx *execCtx, rec record) (value.Value, error) {
			lv, err := l(ctx, rec)
			if err != nil {
				return value.Null, err
			}
			// Short circuit with three-valued logic.
			if op == "AND" && lv.Kind == value.KindBool && !lv.Bool() {
				return value.NewBool(false), nil
			}
			if op == "OR" && lv.Kind == value.KindBool && lv.Bool() {
				return value.NewBool(true), nil
			}
			rv, err := r(ctx, rec)
			if err != nil {
				return value.Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				// null AND false = false; null OR true = true; else null.
				if op == "AND" && rv.Kind == value.KindBool && !rv.Bool() {
					return value.NewBool(false), nil
				}
				if op == "OR" && rv.Kind == value.KindBool && rv.Bool() {
					return value.NewBool(true), nil
				}
				return value.Null, nil
			}
			if lv.Kind != value.KindBool || rv.Kind != value.KindBool {
				return value.Null, fmt.Errorf("type mismatch: %s expects booleans", op)
			}
			switch op {
			case "AND":
				return value.NewBool(lv.Bool() && rv.Bool()), nil
			case "OR":
				return value.NewBool(lv.Bool() || rv.Bool()), nil
			default:
				return value.NewBool(lv.Bool() != rv.Bool()), nil
			}
		}, nil

	case "=", "<>", "<", "<=", ">", ">=":
		return func(ctx *execCtx, rec record) (value.Value, error) {
			lv, err := l(ctx, rec)
			if err != nil {
				return value.Null, err
			}
			rv, err := r(ctx, rec)
			if err != nil {
				return value.Null, err
			}
			return compareValues(op, lv, rv), nil
		}, nil

	case "+", "-", "*", "/", "%", "^":
		return func(ctx *execCtx, rec record) (value.Value, error) {
			lv, err := l(ctx, rec)
			if err != nil {
				return value.Null, err
			}
			rv, err := r(ctx, rec)
			if err != nil {
				return value.Null, err
			}
			switch op {
			case "+":
				return value.Add(lv, rv)
			case "-":
				return value.Sub(lv, rv)
			case "*":
				return value.Mul(lv, rv)
			case "/":
				return value.DivOp(lv, rv)
			case "%":
				return value.Mod(lv, rv)
			default:
				if !lv.IsNumeric() || !rv.IsNumeric() {
					return value.Null, nil
				}
				return value.NewFloat(math.Pow(lv.Float(), rv.Float())), nil
			}
		}, nil

	case "IN":
		return func(ctx *execCtx, rec record) (value.Value, error) {
			lv, err := l(ctx, rec)
			if err != nil {
				return value.Null, err
			}
			rv, err := r(ctx, rec)
			if err != nil {
				return value.Null, err
			}
			if rv.IsNull() {
				return value.Null, nil
			}
			if rv.Kind != value.KindArray {
				return value.Null, fmt.Errorf("type mismatch: IN expects a list, got %s", rv.Kind)
			}
			sawNull := lv.IsNull()
			for _, item := range rv.Array() {
				if item.IsNull() {
					sawNull = true
					continue
				}
				if lv.Equals(item) {
					return value.NewBool(true), nil
				}
			}
			if sawNull {
				return value.Null, nil
			}
			return value.NewBool(false), nil
		}, nil

	case "STARTSWITH", "ENDSWITH", "CONTAINS":
		return func(ctx *execCtx, rec record) (value.Value, error) {
			lv, err := l(ctx, rec)
			if err != nil {
				return value.Null, err
			}
			rv, err := r(ctx, rec)
			if err != nil {
				return value.Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return value.Null, nil
			}
			if lv.Kind != value.KindString || rv.Kind != value.KindString {
				return value.Null, fmt.Errorf("type mismatch: %s expects strings", op)
			}
			switch op {
			case "STARTSWITH":
				return value.NewBool(strings.HasPrefix(lv.Str(), rv.Str())), nil
			case "ENDSWITH":
				return value.NewBool(strings.HasSuffix(lv.Str(), rv.Str())), nil
			default:
				return value.NewBool(strings.Contains(lv.Str(), rv.Str())), nil
			}
		}, nil
	}
	return nil, fmt.Errorf("unknown operator %q", op)
}

func compileFunc(e *cypher.FuncCall, st *symtab) (evalFn, error) {
	if isAggregateFunc(e.Name) {
		return nil, fmt.Errorf("aggregate function %s() is only allowed in RETURN and WITH projections", e.Name)
	}
	args := make([]evalFn, len(e.Args))
	for i, a := range e.Args {
		f, err := compileExpr(a, st)
		if err != nil {
			return nil, err
		}
		args[i] = f
	}
	argc := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s() expects %d argument(s), got %d", e.Name, n, len(args))
		}
		return nil
	}
	evalArgs := func(ctx *execCtx, r record) ([]value.Value, error) {
		out := make([]value.Value, len(args))
		for i, f := range args {
			v, err := f(ctx, r)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	name := e.Name
	switch name {
	case "id":
		if err := argc(1); err != nil {
			return nil, err
		}
		return func(ctx *execCtx, r record) (value.Value, error) {
			vs, err := evalArgs(ctx, r)
			if err != nil {
				return value.Null, err
			}
			v := vs[0]
			if v.Kind == value.KindNode || v.Kind == value.KindEdge {
				return value.NewInt(int64(v.ID)), nil
			}
			return value.Null, nil
		}, nil
	case "labels":
		if err := argc(1); err != nil {
			return nil, err
		}
		return func(ctx *execCtx, r record) (value.Value, error) {
			vs, err := evalArgs(ctx, r)
			if err != nil {
				return value.Null, err
			}
			if vs[0].Kind != value.KindNode {
				return value.Null, nil
			}
			n := vs[0].Entity.(*graph.Node)
			out := make([]value.Value, len(n.Labels))
			for i, l := range n.Labels {
				out[i] = value.NewString(ctx.g.Schema.LabelName(l))
			}
			return value.NewArray(out), nil
		}, nil
	case "type":
		if err := argc(1); err != nil {
			return nil, err
		}
		return func(ctx *execCtx, r record) (value.Value, error) {
			vs, err := evalArgs(ctx, r)
			if err != nil {
				return value.Null, err
			}
			if vs[0].Kind != value.KindEdge {
				return value.Null, nil
			}
			return value.NewString(ctx.g.Schema.RelTypeName(vs[0].Entity.(*graph.Edge).Type)), nil
		}, nil
	case "startnode", "endnode":
		if err := argc(1); err != nil {
			return nil, err
		}
		wantSrc := name == "startnode"
		return func(ctx *execCtx, r record) (value.Value, error) {
			vs, err := evalArgs(ctx, r)
			if err != nil {
				return value.Null, err
			}
			if vs[0].Kind != value.KindEdge {
				return value.Null, nil
			}
			ed := vs[0].Entity.(*graph.Edge)
			id := ed.Src
			if !wantSrc {
				id = ed.Dst
			}
			if n, ok := ctx.g.GetNode(id); ok {
				return value.NewNode(id, n), nil
			}
			return value.Null, nil
		}, nil
	case "indegree", "outdegree":
		if err := argc(1); err != nil {
			return nil, err
		}
		out := name == "outdegree"
		return func(ctx *execCtx, r record) (value.Value, error) {
			vs, err := evalArgs(ctx, r)
			if err != nil {
				return value.Null, err
			}
			if vs[0].Kind != value.KindNode {
				return value.Null, nil
			}
			m := ctx.g.TAdjacency()
			if out {
				m = ctx.g.Adjacency()
			}
			return value.NewInt(int64(m.RowDegree(int(vs[0].ID)))), nil
		}, nil
	case "size", "length":
		if err := argc(1); err != nil {
			return nil, err
		}
		return func(ctx *execCtx, r record) (value.Value, error) {
			vs, err := evalArgs(ctx, r)
			if err != nil {
				return value.Null, err
			}
			switch vs[0].Kind {
			case value.KindString:
				return value.NewInt(int64(len(vs[0].Str()))), nil
			case value.KindArray:
				return value.NewInt(int64(len(vs[0].Array()))), nil
			case value.KindPath:
				return value.NewInt(int64(vs[0].Entity.(*graph.Path).Len())), nil
			}
			return value.Null, nil
		}, nil
	case "exists":
		if err := argc(1); err != nil {
			return nil, err
		}
		return func(ctx *execCtx, r record) (value.Value, error) {
			vs, err := evalArgs(ctx, r)
			if err != nil {
				return value.Null, err
			}
			return value.NewBool(!vs[0].IsNull()), nil
		}, nil
	case "coalesce":
		return func(ctx *execCtx, r record) (value.Value, error) {
			vs, err := evalArgs(ctx, r)
			if err != nil {
				return value.Null, err
			}
			for _, v := range vs {
				if !v.IsNull() {
					return v, nil
				}
			}
			return value.Null, nil
		}, nil
	case "abs", "ceil", "floor", "round", "sqrt", "sign", "log", "exp":
		if err := argc(1); err != nil {
			return nil, err
		}
		fn := map[string]func(float64) float64{
			"abs": math.Abs, "ceil": math.Ceil, "floor": math.Floor,
			"round": math.Round, "sqrt": math.Sqrt, "log": math.Log, "exp": math.Exp,
			"sign": func(x float64) float64 {
				switch {
				case x > 0:
					return 1
				case x < 0:
					return -1
				}
				return 0
			},
		}[name]
		keepInt := name == "abs" || name == "sign"
		return func(ctx *execCtx, r record) (value.Value, error) {
			vs, err := evalArgs(ctx, r)
			if err != nil {
				return value.Null, err
			}
			v := vs[0]
			if v.IsNull() {
				return value.Null, nil
			}
			if !v.IsNumeric() {
				return value.Null, fmt.Errorf("type mismatch: %s expects a number, got %s", name, v.Kind)
			}
			res := fn(v.Float())
			if keepInt && v.Kind == value.KindInt {
				return value.NewInt(int64(res)), nil
			}
			return value.NewFloat(res), nil
		}, nil
	case "tostring":
		if err := argc(1); err != nil {
			return nil, err
		}
		return func(ctx *execCtx, r record) (value.Value, error) {
			vs, err := evalArgs(ctx, r)
			if err != nil {
				return value.Null, err
			}
			if vs[0].IsNull() {
				return value.Null, nil
			}
			return value.NewString(vs[0].String()), nil
		}, nil
	case "tointeger":
		if err := argc(1); err != nil {
			return nil, err
		}
		return func(ctx *execCtx, r record) (value.Value, error) {
			vs, err := evalArgs(ctx, r)
			if err != nil {
				return value.Null, err
			}
			switch vs[0].Kind {
			case value.KindInt:
				return vs[0], nil
			case value.KindFloat:
				return value.NewInt(int64(vs[0].Float())), nil
			case value.KindString:
				if i, err := strconv.ParseInt(strings.TrimSpace(vs[0].Str()), 10, 64); err == nil {
					return value.NewInt(i), nil
				}
			}
			return value.Null, nil
		}, nil
	case "tofloat":
		if err := argc(1); err != nil {
			return nil, err
		}
		return func(ctx *execCtx, r record) (value.Value, error) {
			vs, err := evalArgs(ctx, r)
			if err != nil {
				return value.Null, err
			}
			switch vs[0].Kind {
			case value.KindInt, value.KindFloat:
				return value.NewFloat(vs[0].Float()), nil
			case value.KindString:
				if f, err := strconv.ParseFloat(strings.TrimSpace(vs[0].Str()), 64); err == nil {
					return value.NewFloat(f), nil
				}
			}
			return value.Null, nil
		}, nil
	case "toupper", "tolower", "trim":
		if err := argc(1); err != nil {
			return nil, err
		}
		fn := map[string]func(string) string{
			"toupper": strings.ToUpper, "tolower": strings.ToLower, "trim": strings.TrimSpace,
		}[name]
		return func(ctx *execCtx, r record) (value.Value, error) {
			vs, err := evalArgs(ctx, r)
			if err != nil {
				return value.Null, err
			}
			if vs[0].Kind != value.KindString {
				return value.Null, nil
			}
			return value.NewString(fn(vs[0].Str())), nil
		}, nil
	case "head", "last":
		if err := argc(1); err != nil {
			return nil, err
		}
		return func(ctx *execCtx, r record) (value.Value, error) {
			vs, err := evalArgs(ctx, r)
			if err != nil {
				return value.Null, err
			}
			if vs[0].Kind != value.KindArray || len(vs[0].Array()) == 0 {
				return value.Null, nil
			}
			a := vs[0].Array()
			if name == "head" {
				return a[0], nil
			}
			return a[len(a)-1], nil
		}, nil
	case "range":
		if len(args) != 2 && len(args) != 3 {
			return nil, fmt.Errorf("range() expects 2 or 3 arguments, got %d", len(args))
		}
		return func(ctx *execCtx, r record) (value.Value, error) {
			vs, err := evalArgs(ctx, r)
			if err != nil {
				return value.Null, err
			}
			step := int64(1)
			if len(vs) == 3 {
				step = vs[2].Int()
			}
			if step == 0 {
				return value.Null, fmt.Errorf("range() step cannot be zero")
			}
			var out []value.Value
			if step > 0 {
				for i := vs[0].Int(); i <= vs[1].Int(); i += step {
					out = append(out, value.NewInt(i))
				}
			} else {
				for i := vs[0].Int(); i >= vs[1].Int(); i += step {
					out = append(out, value.NewInt(i))
				}
			}
			return value.NewArray(out), nil
		}, nil
	case "nodes", "relationships":
		if err := argc(1); err != nil {
			return nil, err
		}
		return func(ctx *execCtx, r record) (value.Value, error) {
			vs, err := evalArgs(ctx, r)
			if err != nil {
				return value.Null, err
			}
			if vs[0].Kind != value.KindPath {
				return value.Null, nil
			}
			p := vs[0].Entity.(*graph.Path)
			var out []value.Value
			if name == "nodes" {
				for _, n := range p.Nodes {
					out = append(out, value.NewNode(n.ID, n))
				}
			} else {
				for _, ed := range p.Edges {
					out = append(out, value.NewEdge(ed.ID, ed))
				}
			}
			return value.NewArray(out), nil
		}, nil
	}
	return nil, fmt.Errorf("unknown function %s()", name)
}

func isAggregateFunc(name string) bool {
	switch name {
	case "count", "sum", "avg", "min", "max", "collect":
		return true
	}
	return false
}

// exprHasAggregate walks an AST expression looking for aggregate calls.
func exprHasAggregate(e cypher.Expr) bool {
	switch e := e.(type) {
	case *cypher.FuncCall:
		if isAggregateFunc(e.Name) {
			return true
		}
		for _, a := range e.Args {
			if exprHasAggregate(a) {
				return true
			}
		}
	case *cypher.BinaryExpr:
		return exprHasAggregate(e.L) || exprHasAggregate(e.R)
	case *cypher.UnaryExpr:
		return exprHasAggregate(e.E)
	case *cypher.IsNullExpr:
		return exprHasAggregate(e.E)
	case *cypher.PropAccess:
		return exprHasAggregate(e.E)
	case *cypher.IndexExpr:
		return exprHasAggregate(e.E) || exprHasAggregate(e.Idx)
	case *cypher.ListExpr:
		for _, it := range e.Items {
			if exprHasAggregate(it) {
				return true
			}
		}
	}
	return false
}
