package engine

// WithMorselSize returns x with n rows per morsel, so tests
// can split test-sized relations into many morsels.
func WithMorselSize(x Exec, n int) Exec {
	x.morsel = n
	return x
}
