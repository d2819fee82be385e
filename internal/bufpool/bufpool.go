// Package bufpool is the size-classed byte-buffer pool shared by the hot
// path: decode outputs (cache entries recycle here on eviction via the
// ownership flag), rpc reply frames, and every message buffer the mpi
// transports deliver. It is a leaf package so the transport can reach
// the pool without importing the decode engine.
//
// Classes are powers of two from 512 B to 64 MiB; smaller buffers are
// cheaper to allocate than to pool, larger ones are rare enough to leave
// to the GC.
package bufpool

import (
	"math/bits"
	"sync"
)

const (
	minClassBits = 9  // 512 B
	maxClassBits = 26 // 64 MiB
	numClasses   = maxClassBits - minClassBits + 1
)

var classes [numClasses]sync.Pool

// Get returns a zero-length buffer with capacity at least n, drawn from
// the pool when a buffer of n's size class is available.
func Get(n int) []byte {
	if n > 1<<maxClassBits {
		return make([]byte, 0, n)
	}
	c := 0
	if n > 1<<minClassBits {
		c = bits.Len(uint(n-1)) - minClassBits
	}
	if v := classes[c].Get(); v != nil {
		return v.([]byte)
	}
	return make([]byte, 0, 1<<(c+minClassBits))
}

// Put recycles a buffer for a later Get. Foreign buffers (not from Get)
// are binned by their floor size class, so a Get from that class still
// honours its capacity guarantee; buffers below the smallest class or
// above the largest are left to the GC. The caller must not touch b
// afterwards. Recycling foreign buffers is legal but costly: an
// exact-size allocation binned one class down wastes up to half its
// capacity for the rest of its pooled life, so hot paths Put only what
// Get handed out.
func Put(b []byte) {
	if cap(b) == 0 {
		return
	}
	c := bits.Len(uint(cap(b))) - 1 - minClassBits
	if c < 0 || c >= numClasses {
		return
	}
	classes[c].Put(b[:0]) //nolint:staticcheck // []byte in a sync.Pool costs one small box per Put; acceptable against the buffer sizes pooled here
}
