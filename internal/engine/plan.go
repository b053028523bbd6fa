package engine

import (
	"fmt"
	"strings"

	"qres/internal/boolexpr"
	"qres/internal/table"
)

// Node is a logical SPJU plan operator. Only this package's constructors
// build Nodes: the compiler and the rewrite pass switch over the operator
// set.
type Node interface {
	String() string
	planNode()
}

func (*scanNode) planNode()    {}
func (*selectNode) planNode()  {}
func (*joinNode) planNode()    {}
func (*projectNode) planNode() {}
func (*unionNode) planNode()   {}
func (*sortNode) planNode()    {}
func (*limitNode) planNode()   {}
func (*topKNode) planNode()    {}

// Row is one annotated output tuple: the values plus the Boolean
// provenance expression whose truth decides the tuple's correctness.
type Row struct {
	Tuple table.Tuple
	Prov  boolexpr.Expr
}

// Shape renders the plan's operator tree as a compact one-line signature
// without predicates or column lists, e.g. "Project(Join(Scan,Scan))".
// Query-evaluation trace spans attach it so traces identify the plan
// without reproducing its full String rendering.
//
// Shapes carry the rewrite pass's annotations: a selection the rewrite
// pushed down renders as "Select*", a fused ORDER BY … LIMIT k renders as
// "TopK[k]", and Limit renders its row budget as "Limit[n]". Rendering
// Shape(Rewrite(plan)) next to Shape(plan) therefore shows exactly what
// the rewrite did to a plan.
func Shape(n Node) string {
	switch t := n.(type) {
	case *scanNode:
		return "Scan"
	case *selectNode:
		op := "Select"
		if t.pushed {
			op = "Select*"
		}
		return op + "(" + Shape(t.input) + ")"
	case *joinNode:
		return "Join(" + Shape(t.left) + "," + Shape(t.right) + ")"
	case *projectNode:
		op := "Project"
		if t.distinct {
			op = "Distinct"
		}
		return op + "(" + Shape(t.input) + ")"
	case *unionNode:
		parts := make([]string, len(t.inputs))
		for i, in := range t.inputs {
			parts[i] = Shape(in)
		}
		return "Union(" + strings.Join(parts, ",") + ")"
	case *sortNode:
		return "Sort(" + Shape(t.input) + ")"
	case *limitNode:
		return fmt.Sprintf("Limit[%d](%s)", t.n, Shape(t.input))
	case *topKNode:
		return fmt.Sprintf("TopK[%d](%s)", t.n, Shape(t.input))
	default:
		return "?"
	}
}

// Scan reads a base relation under an alias. Output columns are qualified
// by the alias (or by the relation name if alias is empty).
func Scan(relation, alias string) Node { return &scanNode{relation, alias} }

type scanNode struct{ relation, alias string }

func (n *scanNode) String() string {
	if n.alias != "" && !strings.EqualFold(n.alias, n.relation) {
		return fmt.Sprintf("Scan(%s AS %s)", n.relation, n.alias)
	}
	return fmt.Sprintf("Scan(%s)", n.relation)
}

// Select filters rows by a predicate; provenance passes through unchanged.
func Select(input Node, pred Predicate) Node { return &selectNode{input: input, pred: pred} }

type selectNode struct {
	input Node
	pred  Predicate
	// pushed marks a selection placed by the rewrite pass (rendered as
	// "Select*" in Shape); it has no execution semantics.
	pushed bool
}

func (n *selectNode) String() string {
	return fmt.Sprintf("Select(%s)[%s]", n.pred, n.input)
}

// Join computes the inner join of two inputs under a predicate over the
// concatenated schema. The provenance of a joined row is the conjunction
// of its inputs' provenance. Equality conditions of the form
// left-column = right-column are detected and executed as a hash join;
// remaining conditions are applied as a residual filter.
func Join(left, right Node, on Predicate) Node { return &joinNode{left, right, on} }

type joinNode struct {
	left, right Node
	on          Predicate
}

func (n *joinNode) String() string {
	return fmt.Sprintf("Join(%s)[%s, %s]", n.on, n.left, n.right)
}

// equiCond is an equality between a left-schema column and a right-schema
// column, identified by their positions in each input schema.
type equiCond struct{ leftIdx, rightIdx int }

// splitEquiConds peels hashable equality conditions off the top-level AND
// structure of pred. It returns the extracted conditions and the residual
// predicate (nil if everything was extracted).
func splitEquiConds(pred Predicate, ls, rs outSchema) ([]equiCond, Predicate) {
	var conds []equiCond
	var residual []Predicate

	var walk func(p Predicate)
	walk = func(p Predicate) {
		switch q := p.(type) {
		case andPred:
			for _, sub := range q.ps {
				walk(sub)
			}
		case cmpPred:
			if q.op == OpEq {
				if c, ok := extractEqui(q, ls, rs); ok {
					conds = append(conds, c)
					return
				}
			}
			residual = append(residual, p)
		default:
			residual = append(residual, p)
		}
	}
	if pred != nil {
		walk(pred)
	}
	if len(residual) == 0 {
		return conds, nil
	}
	return conds, And(residual...)
}

// extractEqui recognizes col-op-col equality predicates whose two columns
// resolve on opposite sides of the join.
func extractEqui(q cmpPred, ls, rs outSchema) (equiCond, bool) {
	lc, lok := q.left.(colRef)
	rc, rok := q.right.(colRef)
	if !lok || !rok {
		return equiCond{}, false
	}
	// left column on left schema, right column on right schema?
	if li, err := ls.resolve(lc.qualifier, lc.name); err == nil {
		if ri, err := rs.resolve(rc.qualifier, rc.name); err == nil {
			// Ensure the references are not also resolvable on the
			// opposite side, which would make the split ambiguous.
			if _, e1 := rs.resolve(lc.qualifier, lc.name); e1 != nil {
				if _, e2 := ls.resolve(rc.qualifier, rc.name); e2 != nil {
					return equiCond{leftIdx: li, rightIdx: ri}, true
				}
			}
		}
	}
	// Or flipped: left column on right schema, right column on left.
	if ri, err := rs.resolve(lc.qualifier, lc.name); err == nil {
		if li, err := ls.resolve(rc.qualifier, rc.name); err == nil {
			if _, e1 := ls.resolve(lc.qualifier, lc.name); e1 != nil {
				if _, e2 := rs.resolve(rc.qualifier, rc.name); e2 != nil {
					return equiCond{leftIdx: li, rightIdx: ri}, true
				}
			}
		}
	}
	return equiCond{}, false
}

// Project keeps the listed columns. With distinct=true duplicate output
// tuples are merged and their provenance disjoined, which is where DNF
// provenance expressions with multiple terms arise (paper Table 2). The
// projected columns lose their qualifier and take the name of the
// referenced column.
func Project(input Node, distinct bool, cols ...Scalar) Node {
	return &projectNode{input, distinct, cols}
}

type projectNode struct {
	input    Node
	distinct bool
	cols     []Scalar
}

func (n *projectNode) String() string {
	parts := make([]string, len(n.cols))
	for i, c := range n.cols {
		parts[i] = c.String()
	}
	d := ""
	if n.distinct {
		d = "DISTINCT "
	}
	return fmt.Sprintf("Project(%s%s)[%s]", d, strings.Join(parts, ", "), n.input)
}

// Union combines inputs with set semantics: schemas must be kind-compatible
// position-wise, duplicates are merged, and merged rows' provenance is
// disjoined. Column names follow the first input, as in SQL.
func Union(inputs ...Node) Node { return &unionNode{inputs} }

type unionNode struct{ inputs []Node }

func (n *unionNode) String() string {
	parts := make([]string, len(n.inputs))
	for i, in := range n.inputs {
		parts[i] = in.String()
	}
	return "Union[" + strings.Join(parts, ", ") + "]"
}
