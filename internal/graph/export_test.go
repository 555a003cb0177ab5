package graph

// Lookup is the memo's answer from its ranked lists alone (ok false when
// they cannot answer exactly), for tests outside the package.
func (m *PathMemo) Lookup(out []Path, src, dst Node, k int, maxWeight float64, avoid []bool) ([]Path, bool) {
	return m.lookup(out, src, dst, k, maxWeight, avoid)
}
