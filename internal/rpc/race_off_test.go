//go:build !race

package rpc

const raceDetectorEnabled = false
