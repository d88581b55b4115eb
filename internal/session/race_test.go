//go:build race

package session_test

// raceEnabled reports a -race build, where sync.Pool drops pooled items
// at random and allocation counts stop being reproducible.
const raceEnabled = true
