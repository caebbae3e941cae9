package minipy

import (
	"math"

	"repro/internal/autodiff"
	"repro/internal/tensor"
)

// EvalBinOp evaluates a binary operator on two values with full interpreter
// semantics. It is exported for the graph converter's build-time (static)
// partial evaluation, guaranteeing static folding matches imperative
// execution exactly.
func EvalBinOp(it *Interp, op string, l, r Value) (Value, error) {
	return it.binop(nil, op, l, r)
}

// EvalUnaryOp evaluates a unary operator with interpreter semantics; see
// EvalBinOp.
func EvalUnaryOp(it *Interp, op string, x Value) (Value, error) {
	return it.unary(nil, op, x)
}

// binop evaluates `l op r`. Python numeric semantics apply to scalars
// (int op int -> int except /, int op float -> float); if either operand is a
// tensor, the operation is performed element-wise with broadcasting and,
// when a tape is active, recorded for autodiff.
func (it *Interp) binop(n Node, op string, l, r Value) (Value, error) {
	// Comparison and identity operators first.
	switch op {
	case "==":
		return BoolVal(Equal(l, r)), nil
	case "!=":
		return BoolVal(!Equal(l, r)), nil
	case "is":
		return BoolVal(identical(l, r)), nil
	case "is not":
		return BoolVal(!identical(l, r)), nil
	case "in":
		return it.contains(n, l, r)
	case "<", "<=", ">", ">=":
		return it.compare(n, op, l, r)
	}

	// List/tuple/string concatenation and repetition.
	switch a := l.(type) {
	case *ListVal:
		if b, ok := r.(*ListVal); ok && op == "+" {
			items := make([]Value, 0, len(a.Items)+len(b.Items))
			items = append(items, a.Items...)
			items = append(items, b.Items...)
			return &ListVal{Items: items}, nil
		}
		if k, ok := AsInt(r); ok && op == "*" {
			items := make([]Value, 0, int(k)*len(a.Items))
			for i := int64(0); i < k; i++ {
				items = append(items, a.Items...)
			}
			return &ListVal{Items: items}, nil
		}
	case *TupleVal:
		if b, ok := r.(*TupleVal); ok && op == "+" {
			items := make([]Value, 0, len(a.Items)+len(b.Items))
			items = append(items, a.Items...)
			items = append(items, b.Items...)
			return &TupleVal{Items: items}, nil
		}
	case StrVal:
		if b, ok := r.(StrVal); ok && op == "+" {
			return a + b, nil
		}
	}

	// Tensor arithmetic (possibly mixed with scalars).
	lt, lIsT := l.(*TensorVal)
	rt, rIsT := r.(*TensorVal)
	if lIsT || rIsT {
		var ln, rn *autodiff.Node
		if lIsT {
			ln = lt.Node
		} else if f, ok := AsFloat(l); ok {
			ln = autodiff.Const(tensor.Scalar(f))
		} else {
			return nil, it.rte(n, "unsupported operand %s for tensor %s", l.TypeName(), op)
		}
		if rIsT {
			rn = rt.Node
		} else if f, ok := AsFloat(r); ok {
			rn = autodiff.Const(tensor.Scalar(f))
		} else {
			return nil, it.rte(n, "unsupported operand %s for tensor %s", r.TypeName(), op)
		}
		return it.tensorBinop(n, op, ln, rn)
	}

	// Pure scalar arithmetic.
	li, lOkI := rawInt(l)
	ri, rOkI := rawInt(r)
	if lOkI && rOkI && op != "/" {
		switch op {
		case "+":
			return IntVal(li + ri), nil
		case "-":
			return IntVal(li - ri), nil
		case "*":
			return IntVal(li * ri), nil
		case "//":
			if ri == 0 {
				return nil, it.rte(n, "integer division by zero")
			}
			return IntVal(floorDiv(li, ri)), nil
		case "%":
			if ri == 0 {
				return nil, it.rte(n, "integer modulo by zero")
			}
			return IntVal(li - floorDiv(li, ri)*ri), nil
		case "**":
			if ri >= 0 {
				out := int64(1)
				for i := int64(0); i < ri; i++ {
					out *= li
				}
				return IntVal(out), nil
			}
			return FloatVal(math.Pow(float64(li), float64(ri))), nil
		}
	}
	lf, lOkF := AsFloat(l)
	rf, rOkF := AsFloat(r)
	if lOkF && rOkF {
		switch op {
		case "+":
			return FloatVal(lf + rf), nil
		case "-":
			return FloatVal(lf - rf), nil
		case "*":
			return FloatVal(lf * rf), nil
		case "/":
			if rf == 0 {
				return nil, it.rte(n, "division by zero")
			}
			return FloatVal(lf / rf), nil
		case "//":
			if rf == 0 {
				return nil, it.rte(n, "division by zero")
			}
			return FloatVal(math.Floor(lf / rf)), nil
		case "%":
			if rf == 0 {
				return nil, it.rte(n, "modulo by zero")
			}
			return FloatVal(lf - math.Floor(lf/rf)*rf), nil
		case "**":
			return FloatVal(math.Pow(lf, rf)), nil
		}
	}
	return nil, it.rte(n, "unsupported operand types for %s: %s and %s", op, l.TypeName(), r.TypeName())
}

// rawInt returns an int64 only for genuine integer values (no float/tensor
// coercion), preserving Python's int-vs-float distinction.
func rawInt(v Value) (int64, bool) {
	switch x := v.(type) {
	case IntVal:
		return int64(x), true
	case BoolVal:
		if x {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func identical(a, b Value) bool {
	switch x := a.(type) {
	case NoneVal:
		_, ok := b.(NoneVal)
		return ok
	case *ListVal:
		y, ok := b.(*ListVal)
		return ok && x == y
	case *DictVal:
		y, ok := b.(*DictVal)
		return ok && x == y
	case *ObjectVal:
		y, ok := b.(*ObjectVal)
		return ok && x == y
	case *TensorVal:
		y, ok := b.(*TensorVal)
		return ok && x == y
	}
	return Equal(a, b)
}

func (it *Interp) contains(n Node, item, container Value) (Value, error) {
	switch c := container.(type) {
	case *ListVal:
		for _, v := range c.Items {
			if Equal(v, item) {
				return BoolVal(true), nil
			}
		}
		return BoolVal(false), nil
	case *TupleVal:
		for _, v := range c.Items {
			if Equal(v, item) {
				return BoolVal(true), nil
			}
		}
		return BoolVal(false), nil
	case *DictVal:
		k, err := DictKey(item)
		if err != nil {
			return nil, it.rte(n, "%v", err)
		}
		_, ok := c.Entries[k]
		return BoolVal(ok), nil
	case StrVal:
		s, ok := item.(StrVal)
		if !ok {
			return nil, it.rte(n, "'in <string>' requires string operand")
		}
		return BoolVal(containsStr(string(c), string(s))), nil
	}
	return nil, it.rte(n, "argument of type %s is not a container", container.TypeName())
}

func containsStr(hay, needle string) bool {
	if len(needle) == 0 {
		return true
	}
	for i := 0; i+len(needle) <= len(hay); i++ {
		if hay[i:i+len(needle)] == needle {
			return true
		}
	}
	return false
}

func (it *Interp) compare(n Node, op string, l, r Value) (Value, error) {
	if ls, ok := l.(StrVal); ok {
		if rs, ok := r.(StrVal); ok {
			var res bool
			switch op {
			case "<":
				res = ls < rs
			case "<=":
				res = ls <= rs
			case ">":
				res = ls > rs
			case ">=":
				res = ls >= rs
			}
			return BoolVal(res), nil
		}
	}
	lf, lok := AsFloat(l)
	rf, rok := AsFloat(r)
	if !lok || !rok {
		return nil, it.rte(n, "unorderable types: %s %s %s", l.TypeName(), op, r.TypeName())
	}
	var res bool
	switch op {
	case "<":
		res = lf < rf
	case "<=":
		res = lf <= rf
	case ">":
		res = lf > rf
	case ">=":
		res = lf >= rf
	}
	return BoolVal(res), nil
}

// BinOps names the graph op of each tensor arithmetic operator, for the
// interpreter and the converter alike.
var BinOps = map[string]string{"+": "Add", "-": "Sub", "*": "Mul", "/": "Div", "**": "Pow"}

func (it *Interp) tensorBinop(n Node, op string, l, r *autodiff.Node) (Value, error) {
	it.dispatchDelay()
	gop, ok := BinOps[op]
	if !ok {
		return nil, it.rte(n, "unsupported tensor operator %s", op)
	}
	v, err := it.applyOp(gop, nil, l, r)
	if err != nil {
		return nil, it.rte(n, "%v", err)
	}
	return v, nil
}

func (it *Interp) unary(n Node, op string, x Value) (Value, error) {
	switch op {
	case "not":
		b, err := Truthy(x)
		if err != nil {
			return nil, it.rte(n, "%v", err)
		}
		return BoolVal(!b), nil
	case "+":
		return x, nil
	case "-":
		switch v := x.(type) {
		case IntVal:
			return -v, nil
		case FloatVal:
			return -v, nil
		case BoolVal:
			if v {
				return IntVal(-1), nil
			}
			return IntVal(0), nil
		case *TensorVal:
			return it.applyOp("Neg", nil, v.Node)
		}
	}
	return nil, it.rte(n, "bad operand type for unary %s: %s", op, x.TypeName())
}
