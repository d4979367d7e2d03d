//go:build race

package server

// raceEnabled reports whether the tests were built with -race, whose
// instrumentation allocates on its own account.
const raceEnabled = true
