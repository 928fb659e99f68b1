//go:build !race

package prionn

const raceEnabled = false
