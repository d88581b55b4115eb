//go:build race

package graph

// raceEnabled reports a -race build, where sync.Pool drops pooled items
// at random and allocation counts stop being reproducible.
const raceEnabled = true
