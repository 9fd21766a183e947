//go:build race

package compute

// The race detector makes sync.Pool drop a share of Puts on purpose,
// so pooled evaluators are re-allocated and allocation bounds do not
// hold.
func init() { raceEnabled = true }
