//go:build !race

// Package race reports whether the build has the race detector on. Tests that
// count allocations skip themselves when it is: they were written when the
// scratches travelled through sync.Pool, which under the detector drops a
// quarter of what is put into it, at random, and have only ever been held
// to their budgets in a build without it.
package race

// Enabled is true in a -race build.
const Enabled = false
