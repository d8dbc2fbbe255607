//go:build race

package pagebuf

// Under -race, sync.Pool drops a random share of Puts on purpose, so
// the reuse assertion in TestPoolRecyclesStorage skips itself.
func init() { raceDetectorEnabled = true }
