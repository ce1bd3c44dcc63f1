//go:build !race

package serve

const raceBuild = false
