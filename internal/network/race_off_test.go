//go:build !race

package network_test

// raceEnabled reports whether the race detector is instrumenting this build.
const raceEnabled = false
