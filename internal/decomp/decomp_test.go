package decomp

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fanstore/internal/codec"
)

func TestNilPoolRunsInline(t *testing.T) {
	var p *Pool
	ran := false
	p.Run(PriOpen, func(s *codec.Scratch) {
		if s != nil {
			t.Error("nil pool must pass a nil scratch")
		}
		ran = true
	})
	if !ran {
		t.Fatal("nil pool did not run the job")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	p.Submit(PriPrefetch, &wg, func(*codec.Scratch) {})
	wg.Wait() // must not hang
	if p.Workers() != 0 {
		t.Fatalf("nil pool Workers() = %d", p.Workers())
	}
	p.Close() // must not panic
}

func TestRunExecutesOnWorker(t *testing.T) {
	p := New(2, nil)
	defer p.Close()
	if p.Workers() != 2 {
		t.Fatalf("Workers() = %d, want 2", p.Workers())
	}
	var got atomic.Int64
	for i := 0; i < 100; i++ {
		p.Run(PriOpen, func(s *codec.Scratch) {
			if s == nil {
				t.Error("pool worker must carry a scratch")
			}
			got.Add(1)
		})
	}
	if got.Load() != 100 {
		t.Fatalf("ran %d jobs, want 100", got.Load())
	}
}

// TestOpenPriorityBeatsPrefetch wedges a 1-worker pool, queues a batch of
// prefetch decodes and then one demand open, and checks the open runs
// before every queued prefetch job — the starvation guarantee the
// two-priority design exists for.
func TestOpenPriorityBeatsPrefetch(t *testing.T) {
	p := New(1, nil)
	defer p.Close()

	gate := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	p.Submit(PriOpen, &wg, func(*codec.Scratch) {
		close(started)
		<-gate
	})
	<-started // the only worker is now wedged

	var mu sync.Mutex
	var order []string
	record := func(tag string) func(*codec.Scratch) {
		return func(*codec.Scratch) {
			mu.Lock()
			order = append(order, tag)
			mu.Unlock()
		}
	}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		p.Submit(PriPrefetch, &wg, record("prefetch"))
	}
	wg.Add(1)
	p.Submit(PriOpen, &wg, record("open"))

	close(gate)
	wg.Wait()

	if len(order) != 9 {
		t.Fatalf("ran %d jobs, want 9", len(order))
	}
	if order[0] != "open" {
		t.Fatalf("demand open ran at position %v; a queued prefetch batch starved it", order)
	}
}

// TestCloseDrainsQueued: every submitted job must run even when Close
// lands while the queue is full — a prefetch waiter left hanging would
// deadlock the store's shutdown.
func TestCloseDrainsQueued(t *testing.T) {
	p := New(1, nil)
	gate := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	p.Submit(PriOpen, &wg, func(*codec.Scratch) {
		close(started)
		<-gate
	})
	<-started

	var ran atomic.Int64
	for i := 0; i < 6; i++ {
		wg.Add(1)
		p.Submit(PriPrefetch, &wg, func(*codec.Scratch) { ran.Add(1) })
	}
	done := make(chan struct{})
	go func() {
		close(gate)
		p.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
	wg.Wait()
	if ran.Load() != 6 {
		t.Fatalf("Close dropped jobs: ran %d of 6", ran.Load())
	}
	// Submits after Close run inline on the caller.
	inline := false
	p.Run(PriOpen, func(*codec.Scratch) { inline = true })
	if !inline {
		t.Fatal("post-Close Run did not execute")
	}
	p.Close() // second Close is a no-op
}
