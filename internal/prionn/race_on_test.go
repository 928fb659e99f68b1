//go:build race

package prionn

// raceEnabled reports that the test binary runs under the race detector,
// where sync.Pool drops what it is handed at random: allocation counts
// mean nothing and everything is an order of magnitude slower.
const raceEnabled = true
