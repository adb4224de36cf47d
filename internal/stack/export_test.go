package stack

// CallersPath forces t onto the runtime.Callers path, the reference the
// frame-pointer memo must agree with, and returns it.
func CallersPath(t *Table) *Table {
	t.walk = false
	return t
}

// Walks reports whether t uses the frame-pointer walk.
func (t *Table) Walks() bool { return t.walk }

// Memoised counts the chains t has memoised.
func (t *Table) Memoised() int {
	n := 0
	t.chains.Range(func(_, _ any) bool { n++; return true })
	return n
}

// CollideMemo replaces every memoised chain with one that has the same
// hash and the ID id but a different skip (bumpSkip) or first PC.
func (t *Table) CollideMemo(id ID, bumpSkip bool) {
	t.chains.Range(func(k, v any) bool {
		c := *v.(*chain)
		if bumpSkip {
			c.skip++
		} else {
			c.pcs = append([]uintptr{c.pcs[0] + 1}, c.pcs[1:]...)
		}
		c.id = id
		t.chains.Store(k, &c)
		return true
	})
}
