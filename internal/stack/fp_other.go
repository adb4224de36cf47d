//go:build !amd64 || purego

package stack

import "unsafe"

// framePointer has no frame pointer to return on this platform or with
// the purego tag: the probe fails, and every Capture takes the
// runtime.Callers path.
func framePointer() unsafe.Pointer { return nil }
