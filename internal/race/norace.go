//go:build !race

// Package race tells tests whether the race detector is on. Allocation
// tests skip under it: the detector makes sync.Pool drop Puts at random,
// so pooled paths allocate there and nowhere else.
package race

// Enabled reports whether the binary was built with -race.
const Enabled = false
