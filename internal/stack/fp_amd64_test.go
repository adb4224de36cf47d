//go:build amd64 && !purego

package stack

import "testing"

// On amd64 the frame-pointer walk must agree with runtime.Callers; a
// probe failure would silently send every capture to the slow path.
func TestProbeAcceptsWalk(t *testing.T) {
	if !walkAgrees() {
		t.Fatal("the frame-pointer walk disagrees with runtime.Callers")
	}
	if !NewTable().walk {
		t.Fatal("a new table does not use the frame-pointer walk")
	}
}
