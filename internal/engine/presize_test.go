package engine

import (
	"fmt"
	"math"
	"testing"

	"qres/internal/boolexpr"
	"qres/internal/table"
)

// presizeInput streams n tiny rows with True provenance — a stand-in for a
// build or sort input whose cardinality hint is wildly inflated.
type presizeInput struct {
	n, i int
	row  table.Tuple
}

func (p *presizeInput) Open() error {
	p.i = 0
	return nil
}

func (p *presizeInput) Next() (Row, bool, error) {
	if p.i >= p.n {
		return Row{}, false, nil
	}
	p.i++
	return Row{Tuple: p.row, Prov: boolexpr.True()}, true, nil
}

func (p *presizeInput) Close() {}

// TestPreSizeCapClamp pins the clampPreSize contract: unknown hints
// allocate nothing, sane hints pass through, and inflated hints are capped
// at maxPreSize.
func TestPreSizeCapClamp(t *testing.T) {
	cases := []struct{ hint, want int }{
		{-1, 0},
		{0, 0},
		{4096, 4096},
		{maxPreSize, maxPreSize},
		{maxPreSize + 1, maxPreSize},
		{math.MaxInt32, maxPreSize},
	}
	for _, c := range cases {
		if got := clampPreSize(c.hint); got != c.want {
			t.Errorf("clampPreSize(%d) = %d, want %d", c.hint, got, c.want)
		}
	}
}

// TestPreSizeCapRegression feeds each hinted operator a hint of
// math.MaxInt32 over a tiny input — the shape of a bad estimate at SF 1 —
// and requires the pre-allocated buffers to stay at or under maxPreSize
// instead of reserving gigabytes.
func TestPreSizeCapRegression(t *testing.T) {
	const hint = math.MaxInt32
	in := func(n int) *presizeInput {
		return &presizeInput{n: n, row: table.Tuple{table.Int(7)}}
	}
	drainAll := func(t *testing.T, it iter) {
		t.Helper()
		if err := it.Open(); err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		for {
			_, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return
			}
		}
	}

	t.Run("sort", func(t *testing.T) {
		s := &sortIter{in: in(5), sizeHint: hint}
		if err := s.Open(); err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, _, err := s.Next(); err != nil {
			t.Fatal(err)
		}
		if cap(s.rows) > maxPreSize {
			t.Fatalf("sort pre-allocated %d rows, cap is %d", cap(s.rows), maxPreSize)
		}
	})

	t.Run("topK", func(t *testing.T) {
		k := &topKIter{in: in(5), k: hint}
		drainAll(t, k)
		if cap(k.entries) > maxPreSize {
			t.Fatalf("top-k pre-allocated %d entries, cap is %d", cap(k.entries), maxPreSize)
		}
	})

	// Every join, serial or inside an exchange, materializes its right
	// input through one joinBuild: cover its equi (hash-indexed) and theta
	// (row list only) forms at one partition and at four.
	t.Run("build", func(t *testing.T) {
		for _, kind := range []string{"equi", "theta"} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s,workers=%d", kind, workers), func(t *testing.T) {
					b := &joinBuild{in: in(5), stable: true, sizeHint: hint}
					if kind == "equi" {
						b.conds = []equiCond{{leftIdx: 0, rightIdx: 0}}
					}
					if err := b.run(workers); err != nil {
						t.Fatal(err)
					}
					defer b.close()
					if len(b.rows) != 5 {
						t.Fatalf("build drained %d rows, want 5", len(b.rows))
					}
					if cap(b.rows) > maxPreSize {
						t.Fatalf("%s build pre-allocated %d rows, cap is %d", kind, cap(b.rows), maxPreSize)
					}
					if kind == "equi" && (cap(b.offs) > maxPreSize+1 || cap(b.keyBuf) > maxPreSize*len(b.key(0))) {
						t.Fatalf("equi build pre-allocated %d key offsets and %d key bytes for %d-byte keys, cap is %d keys",
							cap(b.offs), cap(b.keyBuf), len(b.key(0)), maxPreSize)
					}
				})
			}
		}
	})
}
