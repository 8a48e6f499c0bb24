package algebra

import (
	"fmt"
	"strings"

	"repro/internal/excess/sema"
	"repro/internal/value"
)

// Explain renders a plan as an indented text tree, used by the shell's
// \explain and by DB.Explain. It shows the access method chosen per
// node, where each conjunct was attached, and the quantified residue —
// the observable output of the optimizer rules.
//
// extra:output
func (p *Plan) Explain() string {
	var b strings.Builder
	if p.Cached {
		b.WriteString("(cached)\n")
	}
	for i := range p.Nodes {
		n := &p.Nodes[i]
		indent := strings.Repeat("  ", i)
		fmt.Fprintf(&b, "%s-> %s\n", indent, p.DescribeNode(i))
		for _, f := range n.Filter {
			fmt.Fprintf(&b, "%s   filter: %s\n", indent, p.exprString(f))
		}
	}
	indent := strings.Repeat("  ", len(p.Nodes))
	for _, f := range p.Final {
		fmt.Fprintf(&b, "%sresidual: %s\n", indent, p.exprString(f))
	}
	if len(p.Universal) > 0 {
		names := make([]string, len(p.Universal))
		for i, v := range p.Universal {
			names[i] = v.Name
		}
		fmt.Fprintf(&b, "%sforall %s:\n", indent, strings.Join(names, ", "))
		for _, f := range p.ForAll {
			fmt.Fprintf(&b, "%s  must hold: %s\n", indent, p.exprString(f))
		}
	}
	return b.String()
}

// DescribeNode renders plan node i's operator line — "scan Employees
// binding E", "index probe emp_sal …" — the vocabulary shared by
// Explain, EXPLAIN ANALYZE and the span tracer's operator spans.
func (p *Plan) DescribeNode(i int) string {
	n := &p.Nodes[i]
	v := n.Var
	name := v.Name
	if v.Implicit {
		name = "(implicit over " + v.Extent + ")"
	}
	switch v.Kind {
	case sema.VarExtent:
		if n.Hash != nil {
			src := "scan"
			if n.Access != nil {
				src = "index probe " + n.Access.Index.Name
			}
			return fmt.Sprintf("hash join %s [%s] (build %s via %s, probe %s) binding %s",
				v.Extent, n.Hash.FromPred, p.exprString(n.Hash.Build), src,
				p.exprString(n.Hash.Probe), name)
		}
		if n.Access != nil {
			return fmt.Sprintf("index probe %s on %s [%s] binding %s",
				n.Access.Index.Name, v.Extent, n.Access.fromPred(p.Args), name)
		}
		return fmt.Sprintf("scan %s binding %s", v.Extent, name)
	case sema.VarNested:
		return fmt.Sprintf("unnest %s%s binding %s", v.Parent.Name, stepsString(v.Steps, p.Args), name)
	case sema.VarDBPath:
		return fmt.Sprintf("unnest %s%s binding %s", v.Extent, stepsString(v.Steps, p.Args), name)
	}
	return "?"
}

func stepsString(steps []sema.Step, args []value.Value) string {
	s := ""
	for _, st := range steps {
		if st.Attr != "" {
			s += "." + st.Attr
		}
		if st.Index != nil {
			s += "[" + exprString(st.Index, args) + "]"
		}
	}
	return s
}

// exprString renders an expression of the plan, a slot the session
// lifted a literal into as that literal (Args).
func (p *Plan) exprString(e sema.Expr) string { return exprString(e, p.Args) }

// ExprString renders a bound expression in (approximate) surface syntax
// for diagnostics and plan display.
func ExprString(e sema.Expr) string { return exprString(e, nil) }

// exprString is ExprString with the values of lifted slots: a parameter
// whose slot args holds renders as that value.
func exprString(e sema.Expr, args []value.Value) string {
	switch x := e.(type) {
	case nil:
		return "true"
	case *sema.Const:
		return x.Val.String()
	case *sema.VarRef:
		if x.Var.Implicit {
			return x.Var.Extent
		}
		return x.Var.Name
	case *sema.ParamRef:
		if x.Slot < len(args) {
			return args[x.Slot].String()
		}
		return x.Name
	case *sema.DBVarRead:
		return x.Name
	case *sema.ExtentSet:
		return x.Name
	case *sema.PathExpr:
		return exprString(x.Base, args) + stepsString(x.Steps, args)
	case *sema.Unary:
		return x.Op + " " + exprString(x.X, args)
	case *sema.Binary:
		return "(" + exprString(x.L, args) + " " + x.Op + " " + exprString(x.R, args) + ")"
	case *sema.FuncCall:
		return x.Name + argList(x.Args, args)
	case *sema.ADTCall:
		return x.Fn.Name + argList(x.Args, args)
	case *sema.Agg:
		s := x.Op + "(" + exprString(x.Arg, args)
		for i, g := range x.By {
			if i == 0 {
				s += " by "
			} else {
				s += ", "
			}
			s += exprString(g, args)
		}
		if x.Over != nil {
			s += " over " + exprString(x.Over, args)
		}
		return s + ")"
	case *sema.SetCtor:
		parts := make([]string, len(x.Elems))
		for i, el := range x.Elems {
			parts[i] = exprString(el, args)
		}
		return "{" + strings.Join(parts, ", ") + "}"
	case *sema.TupleCtor:
		return x.TT.Name + "(...)"
	}
	return fmt.Sprintf("<%T>", e)
}

func argList(exprs []sema.Expr, args []value.Value) string {
	parts := make([]string, len(exprs))
	for i, a := range exprs {
		parts[i] = exprString(a, args)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
