package learn

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEncoderBasics(t *testing.T) {
	metas := []map[string]string{
		{"source": "a.com", "rel": "acq"},
		{"source": "b.com"},
		{"rel": "roles", "cat": "sports"},
	}
	enc := NewEncoder(metas)
	if enc.NumFeatures() != 3 {
		t.Fatalf("NumFeatures = %d, want 3 (cat, rel, source)", enc.NumFeatures())
	}
	// Attributes sorted by name.
	if enc.Attr(0) != "cat" || enc.Attr(1) != "rel" || enc.Attr(2) != "source" {
		t.Fatalf("attrs = %s %s %s", enc.Attr(0), enc.Attr(1), enc.Attr(2))
	}
	x := enc.Encode(map[string]string{"source": "a.com", "rel": "acq"})
	if x[0] != Unknown {
		t.Error("missing attribute must encode Unknown")
	}
	if x[1] == Unknown || x[2] == Unknown {
		t.Error("known values must not encode Unknown")
	}
	// Same value → same code; different values → different codes.
	y := enc.Encode(map[string]string{"source": "a.com"})
	if y[2] != x[2] {
		t.Error("same value must share a code")
	}
	z := enc.Encode(map[string]string{"source": "b.com"})
	if z[2] == x[2] {
		t.Error("distinct values must not share a code")
	}
	// Unseen value encodes Unknown.
	u := enc.Encode(map[string]string{"source": "zzz.com"})
	if u[2] != Unknown {
		t.Error("unseen value must encode Unknown")
	}
	if enc.Cardinality(2) != 2 {
		t.Errorf("Cardinality(source) = %d, want 2", enc.Cardinality(2))
	}
}

func TestDatasetValidate(t *testing.T) {
	d := &Dataset{}
	d.Add([]int32{1, 2}, true)
	d.Add([]int32{3, 4}, false)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 || d.NumFeatures() != 2 {
		t.Fatal("Len/NumFeatures wrong")
	}
	if got := d.PositiveFraction(); got != 0.5 {
		t.Errorf("PositiveFraction = %f", got)
	}
	d.Add([]int32{1}, true)
	if err := d.Validate(); err == nil {
		t.Error("ragged rows must fail validation")
	}
	bad := &Dataset{X: [][]int32{{1}}}
	if err := bad.Validate(); err == nil {
		t.Error("X/Y length mismatch must fail validation")
	}
	empty := &Dataset{}
	if empty.PositiveFraction() != 0.5 {
		t.Error("empty dataset prior must be 0.5")
	}
}

// separableDataset builds a dataset where feature 0 fully determines the
// label (code 0 → true) and feature 1 is noise.
func separableDataset(n int, rng *rand.Rand) *Dataset {
	d := &Dataset{}
	for i := 0; i < n; i++ {
		f0 := int32(rng.Intn(3))
		d.Add([]int32{f0, int32(rng.Intn(5))}, f0 == 0)
	}
	return d
}

func TestTreeLearnsSeparableRule(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := separableDataset(200, rng)
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	tree := fitTree(d, idx, TreeConfig{}, nil)
	for i, x := range d.X {
		if tree.Predict(x) != d.Y[i] {
			t.Fatalf("tree misclassifies separable example %d", i)
		}
	}
	if tree.depth(0) == 0 {
		t.Error("tree should have split")
	}
}

func TestTreePureNodeIsLeaf(t *testing.T) {
	d := &Dataset{}
	d.Add([]int32{0}, true)
	d.Add([]int32{1}, true)
	tree := fitTree(d, []int{0, 1}, TreeConfig{}, nil)
	if !reflect.DeepEqual(tree, leafTree(1)) {
		t.Fatal("pure node must be a probability-1 leaf")
	}
	empty := fitTree(d, nil, TreeConfig{}, nil)
	if !reflect.DeepEqual(empty, leafTree(0.5)) {
		t.Fatal("empty node must be a 0.5 leaf")
	}
}

func TestTreeRespectsMaxDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := separableDataset(200, rng)
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	tree := fitTree(d, idx, TreeConfig{MaxDepth: 1}, nil)
	if got := tree.depth(0); got > 1 {
		t.Fatalf("Depth = %d, want <= 1", got)
	}
}

func TestForestProbabilityEstimation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := separableDataset(300, rng)
	f := FitForest(d, ForestConfig{Trees: 50, Seed: 7})
	if f.NumTrees() != 50 {
		t.Fatalf("NumTrees = %d", f.NumTrees())
	}
	// Vote fractions must be near-certain on the separable rule.
	pTrue := f.ProbTrue([]int32{0, 2})
	pFalse := f.ProbTrue([]int32{1, 2})
	if pTrue < 0.9 {
		t.Errorf("P(true|f0=0) = %f, want > 0.9", pTrue)
	}
	if pFalse > 0.1 {
		t.Errorf("P(true|f0=1) = %f, want < 0.1", pFalse)
	}
	if acc := f.Accuracy(d); acc < 0.98 {
		t.Errorf("training accuracy = %f", acc)
	}
}

func TestForestDeterministicInSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := separableDataset(100, rng)
	a := FitForest(d, ForestConfig{Trees: 20, Seed: 11})
	b := FitForest(d, ForestConfig{Trees: 20, Seed: 11})
	for trial := 0; trial < 20; trial++ {
		x := []int32{int32(trial % 3), int32(trial % 5)}
		if a.ProbTrue(x) != b.ProbTrue(x) {
			t.Fatal("same seed must give identical forests")
		}
	}
}

func TestForestEmptyDataset(t *testing.T) {
	f := FitForest(&Dataset{}, ForestConfig{Trees: 10, Seed: 1})
	if got := f.ProbTrue([]int32{1, 2, 3}); got != 0.5 {
		t.Fatalf("empty-forest probability = %f, want 0.5", got)
	}
	mean, variance := f.VoteStats([]int32{1})
	if mean != 0.5 || variance != 0 {
		t.Fatal("empty-forest vote stats wrong")
	}
	if f.Accuracy(&Dataset{}) != 0 {
		t.Fatal("accuracy on empty data must be 0")
	}
}

// Vote fraction is a probability: always within [0,1].
func TestForestProbabilityRangeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := separableDataset(80, rng)
	f := FitForest(d, ForestConfig{Trees: 30, Seed: 9})
	check := func(a, b int32) bool {
		p := f.ProbTrue([]int32{a, b})
		return p >= 0 && p <= 1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFeatureImportances(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := separableDataset(300, rng)
	f := FitForest(d, ForestConfig{Trees: 40, Seed: 13})
	imp := f.FeatureImportances()
	if len(imp) != 2 {
		t.Fatalf("importances len = %d", len(imp))
	}
	var sum float64
	for _, v := range imp {
		if v < 0 {
			t.Fatal("negative importance")
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("importances sum to %f, want 1", sum)
	}
	// The label-determining feature must dominate.
	if imp[0] < imp[1] {
		t.Errorf("importances = %v; feature 0 determines labels and should dominate", imp)
	}
}

func TestNaiveBayes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := separableDataset(300, rng)
	nb := FitNaiveBayes(d)
	if p := nb.ProbTrue([]int32{0, 1}); p < 0.8 {
		t.Errorf("NB P(true|f0=0) = %f, want high", p)
	}
	if p := nb.ProbTrue([]int32{2, 1}); p > 0.2 {
		t.Errorf("NB P(true|f0=2) = %f, want low", p)
	}
	correct := 0
	for i, x := range d.X {
		if nb.Predict(x) == d.Y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(d.Len()); acc < 0.9 {
		t.Errorf("NB accuracy = %f", acc)
	}
}

func TestNaiveBayesDegenerate(t *testing.T) {
	empty := FitNaiveBayes(&Dataset{})
	if empty.ProbTrue([]int32{0}) != 0.5 {
		t.Error("empty NB must return 0.5")
	}
	onlyPos := &Dataset{}
	onlyPos.Add([]int32{1}, true)
	if FitNaiveBayes(onlyPos).ProbTrue([]int32{1}) != 1 {
		t.Error("single-class (positive) NB must return 1")
	}
	onlyNeg := &Dataset{}
	onlyNeg.Add([]int32{1}, false)
	if FitNaiveBayes(onlyNeg).ProbTrue([]int32{1}) != 0 {
		t.Error("single-class (negative) NB must return 0")
	}
}

func TestRegForestFitsLinearSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	d := &RegDataset{}
	for i := 0; i < 400; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		d.Add(x, 3*x[0]) // target depends only on feature 0
	}
	f := FitRegForest(d, RegForestConfig{Trees: 40, Seed: 21})
	if f.NumTrees() != 40 {
		t.Fatal("NumTrees wrong")
	}
	var mse float64
	for i := 0; i < 100; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		err := f.Predict(x) - 3*x[0]
		mse += err * err
	}
	mse /= 100
	if mse > 0.1 {
		t.Errorf("regression MSE = %f, want < 0.1", mse)
	}
	// Empty forest predicts 0.
	if FitRegForest(&RegDataset{}, RegForestConfig{}).Predict([]float64{1}) != 0 {
		t.Error("empty regression forest must predict 0")
	}
}

func TestRegForestDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	d := &RegDataset{}
	for i := 0; i < 100; i++ {
		x := []float64{rng.Float64()}
		d.Add(x, x[0]*x[0])
	}
	a := FitRegForest(d, RegForestConfig{Trees: 20, Seed: 5})
	b := FitRegForest(d, RegForestConfig{Trees: 20, Seed: 5})
	for i := 0; i < 20; i++ {
		x := []float64{float64(i) / 20}
		if a.Predict(x) != b.Predict(x) {
			t.Fatal("same seed must give identical regressors")
		}
	}
}

func TestLALScoresAreNonNegativeAndInformative(t *testing.T) {
	lal := TrainLAL(LALConfig{Tasks: 8, CandidatesPerState: 4, Seed: 31})
	rng := rand.New(rand.NewSource(14))
	d := separableDataset(30, rng)
	f := FitForest(d, ForestConfig{Trees: 20, Seed: 15})
	posFrac := d.PositiveFraction()
	for trial := 0; trial < 50; trial++ {
		x := []int32{int32(rng.Intn(3)), int32(rng.Intn(5))}
		if s := lal.Score(f, d.Len(), posFrac, x); s < 0 {
			t.Fatalf("negative LAL score %f", s)
		}
	}
	// Nil LAL scores 0 (selector degenerates to utility-only).
	var nilLAL *LAL
	if nilLAL.Score(f, d.Len(), posFrac, []int32{0, 0}) != 0 {
		t.Error("nil LAL must score 0")
	}
}

func TestSharedLALSingleton(t *testing.T) {
	a := SharedLAL()
	b := SharedLAL()
	if a != b {
		t.Fatal("SharedLAL must return the same instance")
	}
	if a == nil || a.reg == nil {
		t.Fatal("SharedLAL not trained")
	}
}

func TestStateFeaturesShape(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	d := separableDataset(50, rng)
	f := FitForest(d, ForestConfig{Trees: 10, Seed: 17})
	feats := stateFeatures(f, d.Len(), d.PositiveFraction(), []int32{0, 0})
	if len(feats) != numStateFeatures {
		t.Fatalf("state features = %d, want %d", len(feats), numStateFeatures)
	}
	for i, v := range feats {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("feature %d is %f", i, v)
		}
	}
}
