//go:build race

package network_test

// raceEnabled reports whether the race detector is instrumenting this build
// — timing guards skip under it, since instrumentation swamps what they
// measure.
const raceEnabled = true
