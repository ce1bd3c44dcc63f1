//go:build race

package serve

// raceBuild reports that the race detector is compiled in: sync.Pool then
// drops items at random, so allocation pins do not hold.
const raceBuild = true
