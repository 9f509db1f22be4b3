//go:build !race

package qp

const raceEnabled = false
