//go:build race

package rpc

// raceDetectorEnabled reports whether this test binary runs under the
// race detector, which randomly drops sync.Pool puts — making
// allocation-count assertions on pooled paths meaningless there.
const raceDetectorEnabled = true
