// Package learn implements the machine-learning substrate of the
// framework's Learner module (paper Section 4): a categorical decision-tree
// classifier, a random forest with vote-fraction probability estimation
// (the paper's default, 100 trees), a naive Bayes classifier (the paper's
// comparison model), a regression forest, and Learning Active Learning
// (LAL [59]) for estimating the uncertainty reduction a candidate probe
// would yield.
//
// Everything is written from scratch on the standard library; the paper's
// prototype used scikit-learn for the same algorithms.
package learn

import (
	"fmt"
	"maps"
	"slices"
	"sort"
)

// Unknown is the category code for attribute values never seen by the
// encoder (including missing attributes).
const Unknown int32 = -1

// Encoder maps tuple metadata (attribute name → string value) to dense
// categorical feature vectors. Attribute order and value dictionaries are
// fixed at construction from a sample of metadata maps, so encoding is
// stable across the lifetime of a resolution session.
type Encoder struct {
	attrs []string
	dicts []map[string]int32
}

// NewEncoder builds an encoder from the attribute universe observed in
// metas: one feature per attribute name, one category code per observed
// value. Attributes are sorted by name for determinism.
func NewEncoder(metas []map[string]string) *Encoder {
	attrSet := make(map[string]struct{})
	for _, m := range metas {
		for a := range m {
			attrSet[a] = struct{}{}
		}
	}
	attrs := make([]string, 0, len(attrSet))
	for a := range attrSet {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)

	enc := &Encoder{attrs: attrs, dicts: make([]map[string]int32, len(attrs))}
	for i := range enc.dicts {
		enc.dicts[i] = make(map[string]int32)
	}
	for _, m := range metas {
		for i, a := range attrs {
			if v, ok := m[a]; ok {
				if _, seen := enc.dicts[i][v]; !seen {
					enc.dicts[i][v] = int32(len(enc.dicts[i]))
				}
			}
		}
	}
	return enc
}

// NumFeatures returns the number of encoded features (attributes).
func (e *Encoder) NumFeatures() int { return len(e.attrs) }

// Attr returns the attribute name of feature f.
func (e *Encoder) Attr(f int) string { return e.attrs[f] }

// Cardinality returns the number of known codes of feature f.
func (e *Encoder) Cardinality(f int) int { return len(e.dicts[f]) }

// Extend returns the encoder NewEncoder would build over the records this
// encoder was built from followed by metas: unseen values of known
// attributes take the next codes of their attribute, in record order, and
// every existing code stays, so vectors encoded before stay valid. The
// receiver is never modified; when metas bring no unseen value, it is
// returned itself. A record with an attribute name the encoder does not
// know would reorder the features, so Extend then reports false and the
// caller must rebuild.
func (e *Encoder) Extend(metas []map[string]string) (*Encoder, bool) {
	out := e
	for _, m := range metas {
		for a, v := range m {
			i, found := slices.BinarySearch(e.attrs, a)
			if !found {
				return nil, false
			}
			if _, ok := out.dicts[i][v]; ok {
				continue
			}
			if out == e {
				out = &Encoder{attrs: e.attrs, dicts: slices.Clone(e.dicts)}
			}
			if len(out.dicts[i]) == len(e.dicts[i]) { // still e's map
				out.dicts[i] = maps.Clone(e.dicts[i])
			}
			out.dicts[i][v] = int32(len(out.dicts[i]))
		}
	}
	return out, true
}

// Encode maps metadata to a feature vector. Missing or unseen values
// encode as Unknown.
func (e *Encoder) Encode(meta map[string]string) []int32 {
	x := make([]int32, len(e.attrs))
	for i, a := range e.attrs {
		code := Unknown
		if v, ok := meta[a]; ok {
			if c, seen := e.dicts[i][v]; seen {
				code = c
			}
		}
		x[i] = code
	}
	return x
}

// Dataset is a labeled sample for binary classification: rows of
// categorical feature codes with Boolean labels (tuple correctness).
type Dataset struct {
	X [][]int32
	Y []bool
}

// Add appends one labeled example.
func (d *Dataset) Add(x []int32, y bool) {
	d.X = append(d.X, x)
	d.Y = append(d.Y, y)
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.Y) }

// NumFeatures returns the feature-vector width (0 for an empty dataset).
func (d *Dataset) NumFeatures() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// Validate checks internal consistency (equal lengths, uniform width).
func (d *Dataset) Validate() error {
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("learn: %d feature rows but %d labels", len(d.X), len(d.Y))
	}
	w := d.NumFeatures()
	for i, x := range d.X {
		if len(x) != w {
			return fmt.Errorf("learn: row %d has width %d, want %d", i, len(x), w)
		}
	}
	return nil
}

// PositiveFraction returns the fraction of True labels (0.5 on empty data,
// the uninformed prior the framework's EP mode uses).
func (d *Dataset) PositiveFraction() float64 {
	if len(d.Y) == 0 {
		return 0.5
	}
	n := 0
	for _, y := range d.Y {
		if y {
			n++
		}
	}
	return float64(n) / float64(len(d.Y))
}
