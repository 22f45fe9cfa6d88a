package query

import (
	"fmt"
	"strconv"
	"strings"

	"oodb/internal/model"
)

// Query is a parsed SELECT statement.
type Query struct {
	Select     []Path    // empty means * (unless Aggregates is set)
	Aggregates []AggItem // aggregate select list (exclusive with Select)
	From       string    // target class name
	Only       bool      // restrict to the target class, excluding subclasses
	Where      Expr      // nil if absent
	OrderBy    *Path
	Desc       bool
	Limit      int // 0 = no limit
}

// AggFunc enumerates aggregate functions.
type AggFunc int

// The aggregate functions.
const (
	AggCount AggFunc = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	default:
		return "MAX"
	}
}

// AggItem is one aggregate in the select list. A nil Path means COUNT(*).
type AggItem struct {
	Func AggFunc
	Path *Path
}

func (a AggItem) String() string {
	if a.Path == nil {
		return a.Func.String() + "(*)"
	}
	return a.Func.String() + "(" + a.Path.String() + ")"
}

// Path is an attribute (or method) path rooted at the target class:
// manufacturer.location, weight, describe.
type Path struct {
	Steps []string
}

func (p Path) String() string { return strings.Join(p.Steps, ".") }

// Expr is a boolean or value expression node.
type Expr interface {
	exprString() string
}

// BinOp enumerates comparison and logical operators.
type BinOp int

// The operators.
const (
	OpEq BinOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpContains // set-valued attribute membership
	OpIn       // value IN (lit, lit, ...)
)

func (op BinOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	case OpContains:
		return "CONTAINS"
	case OpIn:
		return "IN"
	default:
		return "?"
	}
}

// Binary is a binary expression.
type Binary struct {
	Op   BinOp
	L, R Expr
}

func (b *Binary) exprString() string {
	return fmt.Sprintf("(%s %s %s)", b.L.exprString(), b.Op, b.R.exprString())
}

// Not negates its operand.
type Not struct{ E Expr }

func (n *Not) exprString() string { return fmt.Sprintf("(NOT %s)", n.E.exprString()) }

// PathExpr evaluates a path against the candidate object.
type PathExpr struct{ Path Path }

func (p *PathExpr) exprString() string { return p.Path.String() }

// Lit is a literal value.
type Lit struct{ V model.Value }

func (l *Lit) exprString() string { return litString(l.V) }

// litString renders a literal in the lexer's own grammar, so the canonical
// text parses back to the same value — model.Value.String is for people. The
// lexer knows no backslash escapes in a string, only a doubled quote, and
// takes every other byte as it comes; a float is digits '.' digits, with no
// exponent, and without the '.' it would come back an integer.
func litString(v model.Value) string {
	switch v.Kind() {
	case model.KindString:
		s, _ := v.AsString()
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	case model.KindFloat:
		f, _ := v.AsFloat()
		s := strconv.FormatFloat(f, 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
		return s
	}
	return v.String()
}

// List is a literal list (the right side of IN).
type List struct{ Items []model.Value }

func (l *List) exprString() string {
	parts := make([]string, len(l.Items))
	for i, v := range l.Items {
		parts[i] = litString(v)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// String renders the query canonically (tests and EXPLAIN).
func (q *Query) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if len(q.Aggregates) > 0 {
		parts := make([]string, len(q.Aggregates))
		for i, a := range q.Aggregates {
			parts[i] = a.String()
		}
		sb.WriteString(strings.Join(parts, ", "))
	} else if len(q.Select) == 0 {
		sb.WriteString("*")
	} else {
		parts := make([]string, len(q.Select))
		for i, p := range q.Select {
			parts[i] = p.String()
		}
		sb.WriteString(strings.Join(parts, ", "))
	}
	sb.WriteString(" FROM ")
	if q.Only {
		sb.WriteString("ONLY ")
	}
	sb.WriteString(q.From)
	if q.Where != nil {
		sb.WriteString(" WHERE ")
		sb.WriteString(q.Where.exprString())
	}
	if q.OrderBy != nil {
		sb.WriteString(" ORDER BY ")
		sb.WriteString(q.OrderBy.String())
		if q.Desc {
			sb.WriteString(" DESC")
		}
	}
	if q.Limit > 0 {
		fmt.Fprintf(&sb, " LIMIT %d", q.Limit)
	}
	return sb.String()
}
