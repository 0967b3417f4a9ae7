//go:build race

package main

// raceEnabled reports whether the tests were built with -race.
const raceEnabled = true
