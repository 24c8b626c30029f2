//go:build race

package serve

// raceEnabled reports whether the race detector is active; the
// allocation budget test skips under it (instrumentation and
// sync.Pool's race-mode randomization skew counts).
const raceEnabled = true
