package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestSendRecv(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		// Ring: each rank sends its id to its neighbor.
		msg := []byte{byte(c.Rank())}
		if err := c.Send(c.Neighbor(), 7, msg); err != nil {
			return err
		}
		data, src, err := c.Recv(AnySource, 7)
		if err != nil {
			return err
		}
		wantSrc := (c.Rank() + c.Size() - 1) % c.Size()
		if src != wantSrc || len(data) != 1 || int(data[0]) != wantSrc {
			return fmt.Errorf("rank %d: got %v from %d, want from %d", c.Rank(), data, src, wantSrc)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSendCopiesData: once Send returns, the caller may overwrite its
// buffer without touching the delivered bytes, on either transport — the
// receiver only reads after the sender has scribbled over every byte.
func TestSendCopiesData(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			err := tr.run(2, func(c *Comm) error {
				for i, n := range ownershipSizes {
					if c.Rank() == 0 {
						buf := pattern(n)
						if err := c.Send(1, i, buf); err != nil {
							return err
						}
						for j := range buf {
							buf[j] = 0xEE
						}
						if err := c.Barrier(); err != nil {
							return err
						}
						continue
					}
					if err := c.Barrier(); err != nil {
						return err
					}
					data, _, err := c.Recv(0, i)
					if err != nil {
						return err
					}
					if !bytes.Equal(data, pattern(n)) {
						return fmt.Errorf("%d-byte message changed after the sender reused its buffer", n)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestTagMatching(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			// Send tag 2 first, then tag 1; receiver asks for 1 first.
			if err := c.Send(1, 2, []byte("two")); err != nil {
				return err
			}
			return c.Send(1, 1, []byte("one"))
		}
		one, _, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		two, _, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		if string(one) != "one" || string(two) != "two" {
			return fmt.Errorf("tag matching broken: %q %q", one, two)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNonOvertakingPerTag(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		const n = 100
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := c.Send(1, 5, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			data, _, err := c.Recv(0, 5)
			if err != nil {
				return err
			}
			if int(data[0]) != i {
				return fmt.Errorf("message %d arrived out of order (got %d)", i, data[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgather(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16} {
		err := Run(n, func(c *Comm) error {
			mine := bytes.Repeat([]byte{byte(c.Rank())}, c.Rank()+1)
			parts, err := c.Allgather(mine)
			if err != nil {
				return err
			}
			if len(parts) != c.Size() {
				return fmt.Errorf("got %d parts", len(parts))
			}
			for r, p := range parts {
				want := bytes.Repeat([]byte{byte(r)}, r+1)
				if !bytes.Equal(p, want) {
					return fmt.Errorf("rank %d saw %v for rank %d", c.Rank(), p, r)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestRepeatedCollectives(t *testing.T) {
	// Back-to-back collectives must not cross-match (sequence tagging).
	err := Run(4, func(c *Comm) error {
		for round := 0; round < 20; round++ {
			parts, err := c.Allgather([]byte{byte(round), byte(c.Rank())})
			if err != nil {
				return err
			}
			for r, p := range parts {
				if int(p[0]) != round || int(p[1]) != r {
					return fmt.Errorf("round %d: part %d = %v", round, r, p)
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcast(t *testing.T) {
	err := Run(5, func(c *Comm) error {
		var data []byte
		if c.Rank() == 2 {
			data = []byte("from root two")
		}
		got, err := c.Bcast(2, data)
		if err != nil {
			return err
		}
		if string(got) != "from root two" {
			return fmt.Errorf("rank %d got %q", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierOrdering(t *testing.T) {
	var before, after atomic.Int32
	err := Run(8, func(c *Comm) error {
		before.Add(1)
		if err := c.Barrier(); err != nil {
			return err
		}
		if got := before.Load(); got != 8 {
			return fmt.Errorf("rank %d passed barrier with only %d arrivals", c.Rank(), got)
		}
		after.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if after.Load() != 8 {
		t.Fatalf("only %d ranks completed", after.Load())
	}
}

func TestAbortUnblocksRecv(t *testing.T) {
	sentinel := errors.New("rank failure")
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 2 {
			return sentinel
		}
		// These ranks block forever; the abort must release them.
		_, _, err := c.Recv(AnySource, 9)
		if !errors.Is(err, ErrAborted) {
			return fmt.Errorf("expected ErrAborted, got %v", err)
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Run should surface the failing rank's error, got %v", err)
	}
}

func TestConcurrentRecvPerRank(t *testing.T) {
	// A rank may run a daemon goroutine receiving on one tag while the
	// main goroutine receives on another (FanStore's service loop).
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			done := make(chan error, 1)
			go func() { // daemon: answers requests on tag 10
				for i := 0; i < 5; i++ {
					req, src, err := c.Recv(AnySource, 10)
					if err != nil {
						done <- err
						return
					}
					if err := c.Send(src, 11, append(req, '!')); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}()
			// Main goroutine exchanges on tag 12 concurrently.
			for i := 0; i < 5; i++ {
				if _, _, err := c.Recv(1, 12); err != nil {
					return err
				}
			}
			return <-done
		}
		for i := 0; i < 5; i++ {
			if err := c.Send(0, 10, []byte{byte(i)}); err != nil {
				return err
			}
			if err := c.Send(0, 12, nil); err != nil {
				return err
			}
			resp, _, err := c.Recv(0, 11)
			if err != nil {
				return err
			}
			if len(resp) != 2 || resp[0] != byte(i) || resp[1] != '!' {
				return fmt.Errorf("bad daemon response %v", resp)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInvalidArgs(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if err := c.Send(5, 1, nil); err == nil {
			return errors.New("send to invalid rank should fail")
		}
		if err := c.Send(0, -3, nil); err == nil {
			return errors.New("negative user tag should fail")
		}
		if _, _, err := c.Recv(9, 1); err == nil {
			return errors.New("recv from invalid rank should fail")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := Run(0, func(*Comm) error { return nil }); err == nil {
		t.Fatal("world size 0 should fail")
	}
}

func TestRecvDeadlineTimeout(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 1 {
			return c.Barrier() // never sends
		}
		start := time.Now()
		_, _, err := c.RecvDeadline(1, 9, 30*time.Millisecond)
		if !errors.Is(err, ErrTimeout) {
			return fmt.Errorf("want ErrTimeout, got %v", err)
		}
		if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
			return fmt.Errorf("returned after %v, before the deadline", elapsed)
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvDeadlineDelivers(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 1 {
			// Queued before the recv: must be returned immediately.
			if err := c.Send(0, 9, []byte("early")); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			// Sent while rank 0 is already waiting inside RecvDeadline.
			time.Sleep(10 * time.Millisecond)
			return c.Send(0, 9, []byte("late"))
		}
		data, src, err := c.RecvDeadline(1, 9, time.Second)
		if err != nil || src != 1 || string(data) != "early" {
			return fmt.Errorf("queued: %q from %d, %v", data, src, err)
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		data, _, err = c.RecvDeadline(1, 9, 5*time.Second)
		if err != nil || string(data) != "late" {
			return fmt.Errorf("in-wait: %q, %v", data, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvDeadlineZeroBlocks(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 1 {
			time.Sleep(20 * time.Millisecond)
			return c.Send(0, 9, []byte("x"))
		}
		// Timeout <= 0 means no deadline: behaves exactly like Recv.
		data, _, err := c.RecvDeadline(1, 9, 0)
		if err != nil || string(data) != "x" {
			return fmt.Errorf("got %q, %v", data, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvDeadlineInvalidArgs(t *testing.T) {
	err := Run(1, func(c *Comm) error {
		if _, _, err := c.RecvDeadline(0, -1, time.Millisecond); err == nil {
			return errors.New("negative tag accepted")
		}
		if _, _, err := c.RecvDeadline(5, 1, time.Millisecond); err == nil {
			return errors.New("out-of-range source accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
