//go:build !race

// Package race reports whether the build has the race detector on. Tests that
// count allocations skip themselves when it is: under the detector sync.Pool
// drops a quarter of what is put into it, at random, so a pooled scratch is
// not reliably handed to the next call.
package race

// Enabled is true in a -race build.
const Enabled = false
