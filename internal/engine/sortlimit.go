package engine

import (
	"fmt"
	"strings"
)

// SortKey orders output rows by one scalar.
type SortKey struct {
	By   Scalar
	Desc bool
}

// Sort orders the input's rows by the given keys (stable; NULLs first
// ascending). Ordering does not affect provenance — it only fixes the row
// order that a subsequent Limit truncates, which is how the paper's
// Figure 6 subsets results ("the use of a LIMIT operator over a random
// ordering of the output").
func Sort(input Node, keys ...SortKey) Node { return &sortNode{input, keys} }

type sortNode struct {
	input Node
	keys  []SortKey
}

func (n *sortNode) String() string {
	parts := make([]string, len(n.keys))
	for i, k := range n.keys {
		dir := ""
		if k.Desc {
			dir = " DESC"
		}
		parts[i] = k.By.String() + dir
	}
	return fmt.Sprintf("Sort(%s)[%s]", strings.Join(parts, ", "), n.input)
}

// Limit keeps the first n rows of the input. Combined with Sort it
// implements ORDER BY ... LIMIT; on its own it truncates in the input's
// deterministic order. Limiting shrinks the resolution problem: dropped
// rows' provenance never has to be decided.
func Limit(input Node, n int) Node { return &limitNode{input, n} }

type limitNode struct {
	input Node
	n     int
}

func (l *limitNode) String() string {
	return fmt.Sprintf("Limit(%d)[%s]", l.n, l.input)
}

// topKNode is the fused ORDER BY … LIMIT k operator the rewrite pass
// produces from Limit(Sort(x)) when k ≥ 0. Streaming execution keeps a
// bounded heap of the k best rows (see topKIter) instead of sorting the
// full input; the result is identical to stable-sorting and truncating.
// Only the rewrite constructs this node.
type topKNode struct {
	input Node
	keys  []SortKey
	n     int
}

func (t *topKNode) String() string {
	parts := make([]string, len(t.keys))
	for i, k := range t.keys {
		dir := ""
		if k.Desc {
			dir = " DESC"
		}
		parts[i] = k.By.String() + dir
	}
	return fmt.Sprintf("TopK(%d; %s)[%s]", t.n, strings.Join(parts, ", "), t.input)
}
