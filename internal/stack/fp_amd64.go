//go:build amd64 && !purego

package stack

import "unsafe"

// framePointer returns its caller's frame pointer: the address of the
// word that holds the caller's caller's frame pointer, with the caller's
// return address one word above it. It is implemented in fp_amd64.s.
func framePointer() unsafe.Pointer
