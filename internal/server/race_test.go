//go:build race

package server

// raceEnabled reports a -race build, whose sync.Pool drops a quarter of
// the buffers put back and so skews allocation counts.
const raceEnabled = true
