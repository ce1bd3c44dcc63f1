//go:build race

package core

// raceBuild reports that the race detector is compiled in: its
// instrumentation defeats escape analysis, so allocation pins loosen.
const raceBuild = true
