//go:build !race

package diagnose

const raceEnabled = false
