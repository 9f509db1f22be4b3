//go:build !race

package statics_test

const raceEnabled = false
