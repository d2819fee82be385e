package rpc

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"fanstore/internal/bufpool"
	"fanstore/internal/mpi"
)

// roundTrips runs calls 64 KiB-reply round trips over world run and
// returns the bytes the whole process allocated per call once the pool
// is warm. The reply is built on NewReply and the caller recycles each
// frame, so in steady state no payload-sized buffer is allocated.
func roundTrips(run func(int, func(*mpi.Comm) error) error, size, calls int) (float64, error) {
	payload := bytes.Repeat([]byte{0x5a}, size)
	var perCall float64
	err := run(2, func(c *mpi.Comm) error {
		if c.Rank() == 1 {
			s := serveOn(c, func(int, []byte) ([]byte, error) {
				return append(NewReply(size), payload...), nil
			}, ServerOptions{Workers: 1})
			err := c.Barrier()
			s.Stop()
			return err
		}
		cl := NewClient(c, 500, 1<<20, ClientOptions{})
		call := func() error {
			resp, frame, err := cl.Call(1, []byte("get"))
			if err != nil {
				return err
			}
			if !bytes.Equal(resp, payload) {
				return fmt.Errorf("reply corrupted: %d bytes", len(resp))
			}
			bufpool.Put(frame)
			return nil
		}
		for i := 0; i < 32; i++ { // warm the pool classes and the server
			if err := call(); err != nil {
				return err
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			if err := call(); err != nil {
				return err
			}
		}
		runtime.ReadMemStats(&after)
		perCall = float64(after.TotalAlloc-before.TotalAlloc) / float64(calls)
		return c.Barrier()
	})
	return perCall, err
}

// TestCallSteadyStateAllocs: a steady-state 64 KiB call over the
// in-process transport allocates less than its payload per call. Copying
// the reply into a fresh frame on the server or in the transport would
// cost at least one payload per call.
func TestCallSteadyStateAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race detector randomizes sync.Pool; pool determinism untestable")
	}
	const size = 64 << 10
	perCall, err := roundTrips(mpi.Run, size, 200)
	if err != nil {
		t.Fatal(err)
	}
	if perCall >= size {
		t.Fatalf("64 KiB call allocates %.0f B/call, want < %d", perCall, size)
	}
}

// BenchmarkRPCRoundTrip times one Call round trip whose reply carries
// size bytes, over each transport. Run with -benchmem: B/op is the
// allocation the copy-free fetch plane removes.
func BenchmarkRPCRoundTrip(b *testing.B) {
	for _, tr := range []struct {
		name string
		run  func(int, func(*mpi.Comm) error) error
	}{{"inproc", mpi.Run}, {"tcp", mpi.RunTCP}} {
		for _, size := range []int{1 << 10, 100 << 10, 800 << 10} {
			b.Run(fmt.Sprintf("%s/%dKiB", tr.name, size>>10), func(b *testing.B) {
				payload := bytes.Repeat([]byte{0x5a}, size)
				b.SetBytes(int64(size))
				b.ReportAllocs()
				err := tr.run(2, func(c *mpi.Comm) error {
					if c.Rank() == 1 {
						s := serveOn(c, func(int, []byte) ([]byte, error) {
							return append(NewReply(size), payload...), nil
						}, ServerOptions{Workers: 1})
						err := c.Barrier()
						s.Stop()
						return err
					}
					cl := NewClient(c, 500, 1<<20, ClientOptions{})
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						resp, frame, err := cl.Call(1, []byte("get"))
						if err != nil {
							return err
						}
						if len(resp) != size {
							return fmt.Errorf("reply of %d bytes, want %d", len(resp), size)
						}
						bufpool.Put(frame)
					}
					b.StopTimer()
					return c.Barrier()
				})
				if err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}
