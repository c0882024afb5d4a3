package interp

import (
	"math"
	"strings"

	"repro/internal/xdm"
	"repro/internal/xq/ast"
)

// evalCall dispatches a function call: user-declared functions shadow
// built-ins of the same name/arity; built-ins are strict (arguments are
// evaluated first). User function bodies see the global environment plus
// their parameters and no dynamic context, per the XQuery semantics.
func (ev *evaluator) evalCall(n *ast.FuncCall, en *env, ctx dynCtx) (xdm.Sequence, error) {
	args := make([]xdm.Sequence, len(n.Args))
	for i, a := range n.Args {
		v, err := ev.eval(a, en, ctx)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	if decl := ev.engine.module.Function(n.Name, len(n.Args)); decl != nil {
		return ev.callUserFunc(decl, args)
	}
	bi, ok := builtins[n.Name]
	if !ok {
		return nil, xdm.Errorf(xdm.ErrUndefVar, "undefined function %s#%d", n.Name, len(n.Args))
	}
	if len(args) < bi.min || (bi.max >= 0 && len(args) > bi.max) {
		return nil, xdm.Errorf(xdm.ErrArity, "%s expects %d..%d arguments, got %d",
			n.Name, bi.min, bi.max, len(args))
	}
	return bi.fn(ev, args, ctx)
}

func (ev *evaluator) callUserFunc(decl *ast.FuncDecl, args []xdm.Sequence) (xdm.Sequence, error) {
	if ev.callDepth >= ev.engine.opts.MaxCallDepth {
		return nil, xdm.Errorf(xdm.ErrIFP, "user-defined function recursion exceeds depth %d (calling %s)",
			ev.engine.opts.MaxCallDepth, decl.Name)
	}
	fenv := ev.globalEnv
	for i, p := range decl.Params {
		v, err := coerceSeqType(args[i], p.Type, "argument $"+p.Name+" of "+decl.Name)
		if err != nil {
			return nil, err
		}
		fenv = fenv.bind(p.Name, v)
	}
	ev.callDepth++
	out, err := ev.eval(decl.Body, fenv, dynCtx{})
	ev.callDepth--
	if err != nil {
		return nil, err
	}
	return coerceSeqType(out, decl.Return, "result of "+decl.Name)
}

// coerceSeqType applies the function conversion rules for the simplified
// type system: atomization for atomic expected types, untyped casting,
// integer→double promotion, then an instance-of check.
func coerceSeqType(s xdm.Sequence, t *ast.SeqType, what string) (xdm.Sequence, error) {
	if t == nil {
		return s, nil
	}
	if isAtomicItemType(t.Item) {
		s = xdm.Atomize(s)
		out := make(xdm.Sequence, len(s))
		for i, it := range s {
			c, err := castAtomic(it, t.Item, true)
			if err != nil {
				return nil, err
			}
			out[i] = c
		}
		s = out
	}
	if !matchSeqType(s, *t) {
		return nil, xdm.Errorf(xdm.ErrType, "%s does not match %s", what, t.String())
	}
	return s, nil
}

func isAtomicItemType(it ast.ItemType) bool {
	switch it {
	case ast.ITString, ast.ITInteger, ast.ITDouble, ast.ITBoolean, ast.ITUntyped, ast.ITAnyAtomic:
		return true
	}
	return false
}

// castAtomic casts an atomic item to a target atomic type. With promote
// set, only untyped values are converted and integers promote to doubles
// (function conversion); without it the cast is unconditional (xs:T(e)).
func castAtomic(it xdm.Item, target ast.ItemType, promote bool) (xdm.Item, error) {
	if promote {
		switch target {
		case ast.ITAnyAtomic, ast.ITUntyped:
			return it, nil
		case ast.ITDouble:
			if it.Kind() == xdm.KInteger {
				return xdm.NewDouble(float64(it.Int())), nil
			}
		}
		if it.Kind() != xdm.KUntyped {
			return it, nil
		}
	}
	s := strings.TrimSpace(it.StringValue())
	switch target {
	case ast.ITString:
		return xdm.NewString(it.StringValue()), nil
	case ast.ITUntyped:
		return xdm.NewUntyped(it.StringValue()), nil
	case ast.ITInteger:
		switch it.Kind() {
		case xdm.KInteger:
			return it, nil
		case xdm.KDouble:
			return xdm.NewInteger(int64(it.Float())), nil
		case xdm.KBoolean:
			if it.Bool() {
				return xdm.NewInteger(1), nil
			}
			return xdm.NewInteger(0), nil
		}
		i, err := xdm.ParseInteger(s)
		if err != nil {
			return xdm.Item{}, xdm.NewError(xdm.ErrCast, "cannot cast "+s+" to xs:integer")
		}
		return xdm.NewInteger(i), nil
	case ast.ITDouble:
		switch it.Kind() {
		case xdm.KDouble:
			return it, nil
		case xdm.KInteger:
			return xdm.NewDouble(float64(it.Int())), nil
		case xdm.KBoolean:
			if it.Bool() {
				return xdm.NewDouble(1), nil
			}
			return xdm.NewDouble(0), nil
		}
		f, err := xdm.ParseDouble(s)
		if err != nil {
			return xdm.Item{}, xdm.NewError(xdm.ErrCast, "cannot cast "+s+" to xs:double")
		}
		return xdm.NewDouble(f), nil
	case ast.ITBoolean:
		switch it.Kind() {
		case xdm.KBoolean:
			return it, nil
		case xdm.KInteger:
			return xdm.NewBoolean(it.Int() != 0), nil
		case xdm.KDouble:
			f := it.Float()
			return xdm.NewBoolean(f != 0 && f == f), nil
		}
		switch s {
		case "true", "1":
			return xdm.NewBoolean(true), nil
		case "false", "0":
			return xdm.NewBoolean(false), nil
		}
		return xdm.Item{}, xdm.NewError(xdm.ErrCast, "cannot cast "+s+" to xs:boolean")
	case ast.ITAnyAtomic:
		return it, nil
	}
	return xdm.Item{}, xdm.NewError(xdm.ErrType, "unsupported cast target")
}

type builtinFn func(ev *evaluator, args []xdm.Sequence, ctx dynCtx) (xdm.Sequence, error)

type builtin struct {
	min, max int // max = -1 for variadic
	fn       builtinFn
}

func ctxItemArg(args []xdm.Sequence, i int, ctx dynCtx, name string) (xdm.Sequence, error) {
	if len(args) > i {
		return args[i], nil
	}
	if !ctx.ok {
		return nil, xdm.NewError(xdm.ErrCtxItem, "fn:"+name+" with absent context item")
	}
	return xdm.Singleton(ctx.item), nil
}

func singleString(s xdm.Sequence) (string, bool, error) {
	s = xdm.Atomize(s)
	if len(s) == 0 {
		return "", false, nil
	}
	if len(s) > 1 {
		return "", false, xdm.NewError(xdm.ErrType, "expected at most one string")
	}
	return s[0].StringValue(), true, nil
}

func boolSeq(b bool) xdm.Sequence { return xdm.Singleton(xdm.NewBoolean(b)) }

var builtins map[string]builtin

func init() {
	builtins = map[string]builtin{
		"doc": {1, 1, func(ev *evaluator, args []xdm.Sequence, _ dynCtx) (xdm.Sequence, error) {
			uri, ok, err := singleString(args[0])
			if err != nil || !ok {
				return nil, err
			}
			d, err := ev.engine.Doc(uri)
			if err != nil {
				return nil, err
			}
			return xdm.Singleton(xdm.NewNode(d.Root())), nil
		}},
		"root": {0, 1, func(_ *evaluator, args []xdm.Sequence, ctx dynCtx) (xdm.Sequence, error) {
			arg, err := ctxItemArg(args, 0, ctx, "root")
			if err != nil {
				return nil, err
			}
			if len(arg) == 0 {
				return nil, nil
			}
			if len(arg) > 1 || !arg[0].IsNode() {
				return nil, xdm.NewError(xdm.ErrType, "fn:root requires a single node")
			}
			return xdm.Singleton(xdm.NewNode(arg[0].Node().D.Root())), nil
		}},
		"id": {1, 2, biID},
		"count": {1, 1, func(_ *evaluator, args []xdm.Sequence, _ dynCtx) (xdm.Sequence, error) {
			return xdm.Singleton(xdm.NewInteger(int64(len(args[0])))), nil
		}},
		"empty": {1, 1, func(_ *evaluator, args []xdm.Sequence, _ dynCtx) (xdm.Sequence, error) {
			return boolSeq(len(args[0]) == 0), nil
		}},
		"exists": {1, 1, func(_ *evaluator, args []xdm.Sequence, _ dynCtx) (xdm.Sequence, error) {
			return boolSeq(len(args[0]) != 0), nil
		}},
		"not": {1, 1, func(_ *evaluator, args []xdm.Sequence, _ dynCtx) (xdm.Sequence, error) {
			b, err := xdm.EBV(args[0])
			if err != nil {
				return nil, err
			}
			return boolSeq(!b), nil
		}},
		"boolean": {1, 1, func(_ *evaluator, args []xdm.Sequence, _ dynCtx) (xdm.Sequence, error) {
			b, err := xdm.EBV(args[0])
			if err != nil {
				return nil, err
			}
			return boolSeq(b), nil
		}},
		"string": {0, 1, func(_ *evaluator, args []xdm.Sequence, ctx dynCtx) (xdm.Sequence, error) {
			arg, err := ctxItemArg(args, 0, ctx, "string")
			if err != nil {
				return nil, err
			}
			if len(arg) == 0 {
				return xdm.Singleton(xdm.NewString("")), nil
			}
			if len(arg) > 1 {
				return nil, xdm.NewError(xdm.ErrType, "fn:string over multi-item sequence")
			}
			return xdm.Singleton(xdm.NewString(arg[0].StringValue())), nil
		}},
		"data": {1, 1, func(_ *evaluator, args []xdm.Sequence, _ dynCtx) (xdm.Sequence, error) {
			return xdm.Atomize(args[0]), nil
		}},
		"number": {0, 1, func(_ *evaluator, args []xdm.Sequence, ctx dynCtx) (xdm.Sequence, error) {
			arg, err := ctxItemArg(args, 0, ctx, "number")
			if err != nil {
				return nil, err
			}
			if len(arg) != 1 {
				return xdm.Singleton(xdm.NewDouble(math.NaN())), nil
			}
			return xdm.Singleton(xdm.NewDouble(xdm.AtomizeItem(arg[0]).NumberValue())), nil
		}},
		"position": {0, 0, func(_ *evaluator, _ []xdm.Sequence, ctx dynCtx) (xdm.Sequence, error) {
			if !ctx.ok {
				return nil, xdm.NewError(xdm.ErrCtxItem, "fn:position with absent context item")
			}
			return xdm.Singleton(xdm.NewInteger(ctx.pos)), nil
		}},
		"last": {0, 0, func(_ *evaluator, _ []xdm.Sequence, ctx dynCtx) (xdm.Sequence, error) {
			if !ctx.ok {
				return nil, xdm.NewError(xdm.ErrCtxItem, "fn:last with absent context item")
			}
			return xdm.Singleton(xdm.NewInteger(ctx.size)), nil
		}},
		"name":       {0, 1, biName(func(n xdm.NodeRef) string { return n.Name() })},
		"local-name": {0, 1, biName(localName)},
		"concat": {2, -1, func(_ *evaluator, args []xdm.Sequence, _ dynCtx) (xdm.Sequence, error) {
			var sb strings.Builder
			for _, a := range args {
				s, _, err := singleString(a)
				if err != nil {
					return nil, err
				}
				sb.WriteString(s)
			}
			return xdm.Singleton(xdm.NewString(sb.String())), nil
		}},
		"string-join": {2, 2, func(_ *evaluator, args []xdm.Sequence, _ dynCtx) (xdm.Sequence, error) {
			sep, _, err := singleString(args[1])
			if err != nil {
				return nil, err
			}
			return xdm.Singleton(xdm.NewString(xdm.StringJoin(xdm.Atomize(args[0]), sep))), nil
		}},
		"contains":    {2, 2, biString2(strings.Contains)},
		"starts-with": {2, 2, biString2(strings.HasPrefix)},
		"ends-with":   {2, 2, biString2(strings.HasSuffix)},
		"substring-before": {2, 2, func(_ *evaluator, args []xdm.Sequence, _ dynCtx) (xdm.Sequence, error) {
			a, _, err := singleString(args[0])
			if err != nil {
				return nil, err
			}
			b, _, err := singleString(args[1])
			if err != nil {
				return nil, err
			}
			if i := strings.Index(a, b); i >= 0 && b != "" {
				return xdm.Singleton(xdm.NewString(a[:i])), nil
			}
			return xdm.Singleton(xdm.NewString("")), nil
		}},
		"substring-after": {2, 2, func(_ *evaluator, args []xdm.Sequence, _ dynCtx) (xdm.Sequence, error) {
			a, _, err := singleString(args[0])
			if err != nil {
				return nil, err
			}
			b, _, err := singleString(args[1])
			if err != nil {
				return nil, err
			}
			if i := strings.Index(a, b); i >= 0 && b != "" {
				return xdm.Singleton(xdm.NewString(a[i+len(b):])), nil
			}
			return xdm.Singleton(xdm.NewString("")), nil
		}},
		"substring": {2, 3, biSubstring},
		"string-length": {0, 1, func(_ *evaluator, args []xdm.Sequence, ctx dynCtx) (xdm.Sequence, error) {
			arg, err := ctxItemArg(args, 0, ctx, "string-length")
			if err != nil {
				return nil, err
			}
			s, _, err := singleString(arg)
			if err != nil {
				return nil, err
			}
			return xdm.Singleton(xdm.NewInteger(int64(len([]rune(s))))), nil
		}},
		"normalize-space": {0, 1, func(_ *evaluator, args []xdm.Sequence, ctx dynCtx) (xdm.Sequence, error) {
			arg, err := ctxItemArg(args, 0, ctx, "normalize-space")
			if err != nil {
				return nil, err
			}
			s, _, err := singleString(arg)
			if err != nil {
				return nil, err
			}
			return xdm.Singleton(xdm.NewString(strings.Join(strings.Fields(s), " "))), nil
		}},
		"upper-case": {1, 1, biString1(strings.ToUpper)},
		"lower-case": {1, 1, biString1(strings.ToLower)},
		"translate": {3, 3, func(_ *evaluator, args []xdm.Sequence, _ dynCtx) (xdm.Sequence, error) {
			s, _, err := singleString(args[0])
			if err != nil {
				return nil, err
			}
			from, _, err := singleString(args[1])
			if err != nil {
				return nil, err
			}
			to, _, err := singleString(args[2])
			if err != nil {
				return nil, err
			}
			fromR, toR := []rune(from), []rune(to)
			var sb strings.Builder
			for _, r := range s {
				idx := -1
				for i, fr := range fromR {
					if fr == r {
						idx = i
						break
					}
				}
				if idx < 0 {
					sb.WriteRune(r)
				} else if idx < len(toR) {
					sb.WriteRune(toR[idx])
				}
			}
			return xdm.Singleton(xdm.NewString(sb.String())), nil
		}},
		"distinct-values": {1, 1, func(_ *evaluator, args []xdm.Sequence, _ dynCtx) (xdm.Sequence, error) {
			return xdm.DistinctValues(args[0]), nil
		}},
		"deep-equal": {2, 2, func(_ *evaluator, args []xdm.Sequence, _ dynCtx) (xdm.Sequence, error) {
			return boolSeq(xdm.DeepEqual(args[0], args[1])), nil
		}},
		"index-of": {2, 2, func(_ *evaluator, args []xdm.Sequence, _ dynCtx) (xdm.Sequence, error) {
			seq := xdm.Atomize(args[0])
			target := xdm.Atomize(args[1])
			if len(target) != 1 {
				return nil, xdm.NewError(xdm.ErrType, "fn:index-of requires a single search item")
			}
			var out xdm.Sequence
			for i, it := range seq {
				ok, err := xdm.GeneralCompareItems(it, target[0], xdm.OpEq)
				if err != nil {
					continue // incomparable items contribute no match
				}
				if ok {
					out = append(out, xdm.NewInteger(int64(i+1)))
				}
			}
			return out, nil
		}},
		"insert-before": {3, 3, func(_ *evaluator, args []xdm.Sequence, _ dynCtx) (xdm.Sequence, error) {
			pos, ok, err := singleInteger(args[1])
			if err != nil || !ok {
				return nil, xdm.NewError(xdm.ErrType, "fn:insert-before position must be an integer")
			}
			target, inserts := args[0], args[2]
			if pos < 1 {
				pos = 1
			}
			if pos > int64(len(target)) {
				pos = int64(len(target)) + 1
			}
			out := make(xdm.Sequence, 0, len(target)+len(inserts))
			out = append(out, target[:pos-1]...)
			out = append(out, inserts...)
			out = append(out, target[pos-1:]...)
			return out, nil
		}},
		"remove": {2, 2, func(_ *evaluator, args []xdm.Sequence, _ dynCtx) (xdm.Sequence, error) {
			pos, ok, err := singleInteger(args[1])
			if err != nil || !ok {
				return nil, xdm.NewError(xdm.ErrType, "fn:remove position must be an integer")
			}
			src := args[0]
			if pos < 1 || pos > int64(len(src)) {
				return src, nil
			}
			out := make(xdm.Sequence, 0, len(src)-1)
			out = append(out, src[:pos-1]...)
			out = append(out, src[pos:]...)
			return out, nil
		}},
		"reverse": {1, 1, func(_ *evaluator, args []xdm.Sequence, _ dynCtx) (xdm.Sequence, error) {
			src := args[0]
			out := make(xdm.Sequence, len(src))
			for i, it := range src {
				out[len(src)-1-i] = it
			}
			return out, nil
		}},
		"subsequence": {2, 3, biSubsequence},
		"exactly-one": {1, 1, biCardinality(1, 1, "exactly-one")},
		"zero-or-one": {1, 1, biCardinality(0, 1, "zero-or-one")},
		"one-or-more": {1, 1, biCardinality(1, -1, "one-or-more")},
		"min":         {1, 1, biMinMax(true)},
		"max":         {1, 1, biMinMax(false)},
		"sum": {1, 2, func(_ *evaluator, args []xdm.Sequence, _ dynCtx) (xdm.Sequence, error) {
			if len(args[0]) == 0 {
				if len(args) == 2 {
					return args[1], nil
				}
				return xdm.Singleton(xdm.NewInteger(0)), nil
			}
			sum, err := numericSum(args[0])
			if err != nil {
				return nil, err
			}
			return xdm.Singleton(sum), nil
		}},
		"avg": {1, 1, func(_ *evaluator, args []xdm.Sequence, _ dynCtx) (xdm.Sequence, error) {
			if len(args[0]) == 0 {
				return nil, nil
			}
			sum, err := numericSum(args[0])
			if err != nil {
				return nil, err
			}
			avg, err := xdm.Arith(ast.OpDiv, sum, xdm.NewInteger(int64(len(args[0]))))
			if err != nil {
				return nil, err
			}
			return xdm.Singleton(avg), nil
		}},
		"abs":     {1, 1, biMath(math.Abs)},
		"floor":   {1, 1, biMath(math.Floor)},
		"ceiling": {1, 1, biMath(math.Ceil)},
		"round":   {1, 1, biMath(func(f float64) float64 { return math.Floor(f + 0.5) })},
		"true": {0, 0, func(_ *evaluator, _ []xdm.Sequence, _ dynCtx) (xdm.Sequence, error) {
			return boolSeq(true), nil
		}},
		"false": {0, 0, func(_ *evaluator, _ []xdm.Sequence, _ dynCtx) (xdm.Sequence, error) {
			return boolSeq(false), nil
		}},
		"error": {0, 2, func(_ *evaluator, args []xdm.Sequence, _ dynCtx) (xdm.Sequence, error) {
			msg := "fn:error called"
			if len(args) >= 2 {
				if s, ok, _ := singleString(args[1]); ok {
					msg = s
				}
			} else if len(args) == 1 {
				if s, ok, _ := singleString(args[0]); ok {
					msg = s
				}
			}
			return nil, xdm.NewError(xdm.ErrUserFail, msg)
		}},
		"xs:integer": {1, 1, biCast(ast.ITInteger)},
		"xs:double":  {1, 1, biCast(ast.ITDouble)},
		"xs:string":  {1, 1, biCast(ast.ITString)},
		"xs:boolean": {1, 1, biCast(ast.ITBoolean)},
	}
}

// biID implements fn:id: atomize the argument, split each value on
// whitespace, look each token up in the target document's ID index, and
// return the matching elements in distinct document order. The target
// document comes from the optional second argument or the context item —
// exactly the lookup Q1's `$x/id(./prerequisites/pre_code)` performs.
func biID(_ *evaluator, args []xdm.Sequence, ctx dynCtx) (xdm.Sequence, error) {
	var target xdm.NodeRef
	switch {
	case len(args) == 2:
		if len(args[1]) != 1 || !args[1][0].IsNode() {
			return nil, xdm.NewError(xdm.ErrType, "fn:id second argument must be a single node")
		}
		target = args[1][0].Node()
	case ctx.ok && ctx.item.IsNode():
		target = ctx.item.Node()
	default:
		return nil, xdm.NewError(xdm.ErrCtxItem, "fn:id requires a node context")
	}
	doc := target.D
	var out xdm.Sequence
	for _, it := range xdm.Atomize(args[0]) {
		for _, tok := range strings.Fields(it.StringValue()) {
			if n, ok := doc.ByID(tok); ok {
				out = append(out, xdm.NewNode(n))
			}
		}
	}
	return xdm.DDO(out)
}

func localName(n xdm.NodeRef) string {
	name := n.Name()
	if i := strings.LastIndexByte(name, ':'); i >= 0 {
		return name[i+1:]
	}
	return name
}

func biName(get func(xdm.NodeRef) string) builtinFn {
	return func(_ *evaluator, args []xdm.Sequence, ctx dynCtx) (xdm.Sequence, error) {
		arg, err := ctxItemArg(args, 0, ctx, "name")
		if err != nil {
			return nil, err
		}
		if len(arg) == 0 {
			return xdm.Singleton(xdm.NewString("")), nil
		}
		if len(arg) > 1 || !arg[0].IsNode() {
			return nil, xdm.NewError(xdm.ErrType, "fn:name requires a single node")
		}
		return xdm.Singleton(xdm.NewString(get(arg[0].Node()))), nil
	}
}

func biString1(f func(string) string) builtinFn {
	return func(_ *evaluator, args []xdm.Sequence, _ dynCtx) (xdm.Sequence, error) {
		s, _, err := singleString(args[0])
		if err != nil {
			return nil, err
		}
		return xdm.Singleton(xdm.NewString(f(s))), nil
	}
}

func biString2(f func(a, b string) bool) builtinFn {
	return func(_ *evaluator, args []xdm.Sequence, _ dynCtx) (xdm.Sequence, error) {
		a, _, err := singleString(args[0])
		if err != nil {
			return nil, err
		}
		b, _, err := singleString(args[1])
		if err != nil {
			return nil, err
		}
		return boolSeq(f(a, b)), nil
	}
}

func biMath(f func(float64) float64) builtinFn {
	return func(_ *evaluator, args []xdm.Sequence, _ dynCtx) (xdm.Sequence, error) {
		seq := xdm.Atomize(args[0])
		if len(seq) == 0 {
			return nil, nil
		}
		if len(seq) > 1 {
			return nil, xdm.NewError(xdm.ErrType, "numeric function over multi-item sequence")
		}
		it, err := xdm.ToNumeric(seq[0])
		if err != nil {
			return nil, err
		}
		if it.Kind() == xdm.KDouble {
			return xdm.Singleton(xdm.NewDouble(f(it.Float()))), nil
		}
		// An integer is its own floor, ceiling and round; f moves it only
		// when it is fn:abs of a negative, which Negate computes exactly.
		if i := float64(it.Int()); f(i) != i {
			if it, err = xdm.Negate(it); err != nil {
				return nil, err
			}
		}
		return xdm.Singleton(it), nil
	}
}

func biCast(target ast.ItemType) builtinFn {
	return func(_ *evaluator, args []xdm.Sequence, _ dynCtx) (xdm.Sequence, error) {
		seq := xdm.Atomize(args[0])
		if len(seq) == 0 {
			return nil, nil
		}
		if len(seq) > 1 {
			return nil, xdm.NewError(xdm.ErrType, "cast over multi-item sequence")
		}
		it, err := castAtomic(seq[0], target, false)
		if err != nil {
			return nil, err
		}
		return xdm.Singleton(it), nil
	}
}

func biCardinality(min, max int, name string) builtinFn {
	return func(_ *evaluator, args []xdm.Sequence, _ dynCtx) (xdm.Sequence, error) {
		n := len(args[0])
		if n < min || (max >= 0 && n > max) {
			return nil, xdm.Errorf(xdm.ErrCard, "fn:%s cardinality violation (%d items)", name, n)
		}
		return args[0], nil
	}
}

func biMinMax(isMin bool) builtinFn {
	return func(_ *evaluator, args []xdm.Sequence, _ dynCtx) (xdm.Sequence, error) {
		seq := xdm.Atomize(args[0])
		if len(seq) == 0 {
			return nil, nil
		}
		numeric := true
		for _, it := range seq {
			if it.Kind() == xdm.KString {
				numeric = false
				break
			}
		}
		if numeric {
			best, err := xdm.ToNumeric(seq[0])
			if err != nil {
				return nil, err
			}
			for _, it := range seq[1:] {
				v, err := xdm.ToNumeric(it)
				if err != nil {
					return nil, err
				}
				if c := xdm.CompareOrder(v, best); isMin && c < 0 || !isMin && c > 0 {
					best = v
				}
			}
			return xdm.Singleton(best), nil
		}
		best := seq[0].StringValue()
		for _, it := range seq[1:] {
			s := it.StringValue()
			if (isMin && s < best) || (!isMin && s > best) {
				best = s
			}
		}
		return xdm.Singleton(xdm.NewString(best)), nil
	}
}

// numericSum adds a non-empty sequence left to right with xdm.Arith, so
// integers stay exact until a double joins the sum.
func numericSum(seq xdm.Sequence) (xdm.Item, error) {
	sum, err := xdm.ToNumeric(seq[0])
	for _, it := range seq[1:] {
		if err != nil {
			break
		}
		sum, err = xdm.Arith(ast.OpAdd, sum, it)
	}
	return sum, err
}

func biSubstring(_ *evaluator, args []xdm.Sequence, _ dynCtx) (xdm.Sequence, error) {
	s, _, err := singleString(args[0])
	if err != nil {
		return nil, err
	}
	startSeq := xdm.Atomize(args[1])
	if len(startSeq) != 1 {
		return nil, xdm.NewError(xdm.ErrType, "fn:substring start must be a single number")
	}
	start := math.Floor(startSeq[0].NumberValue() + 0.5)
	runes := []rune(s)
	end := float64(len(runes)) + 1
	if len(args) == 3 {
		lenSeq := xdm.Atomize(args[2])
		if len(lenSeq) != 1 {
			return nil, xdm.NewError(xdm.ErrType, "fn:substring length must be a single number")
		}
		end = start + math.Floor(lenSeq[0].NumberValue()+0.5)
	}
	var sb strings.Builder
	for i, r := range runes {
		p := float64(i + 1)
		if p >= start && p < end {
			sb.WriteRune(r)
		}
	}
	return xdm.Singleton(xdm.NewString(sb.String())), nil
}

func biSubsequence(_ *evaluator, args []xdm.Sequence, _ dynCtx) (xdm.Sequence, error) {
	src := args[0]
	startSeq := xdm.Atomize(args[1])
	if len(startSeq) != 1 {
		return nil, xdm.NewError(xdm.ErrType, "fn:subsequence start must be a single number")
	}
	start := math.Floor(startSeq[0].NumberValue() + 0.5)
	end := math.Inf(1)
	if len(args) == 3 {
		lenSeq := xdm.Atomize(args[2])
		if len(lenSeq) != 1 {
			return nil, xdm.NewError(xdm.ErrType, "fn:subsequence length must be a single number")
		}
		end = start + math.Floor(lenSeq[0].NumberValue()+0.5)
	}
	var out xdm.Sequence
	for i, it := range src {
		p := float64(i + 1)
		if p >= start && p < end {
			out = append(out, it)
		}
	}
	return out, nil
}
