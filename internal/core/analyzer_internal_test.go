package core

import "testing"

// lineMask is closed-form; it must equal the mask built byte by byte
// for every offset and length within a line.
func TestLineMaskMatchesBytes(t *testing.T) {
	for off := uint64(0); off < 64; off++ {
		for n := uint64(0); off+n <= 64; n++ {
			var want uint64
			for b := off; b < off+n; b++ {
				want |= 1 << b
			}
			if got := lineMask(off, n); got != want {
				t.Fatalf("lineMask(%d, %d) = %#x, want %#x", off, n, got, want)
			}
		}
	}
}
