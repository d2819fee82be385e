package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"fanstore/internal/bufpool"
)

// transports runs a buffer-ownership case over both transports.
var transports = []struct {
	name string
	run  func(n int, f func(c *Comm) error) error
}{
	{"inproc", Run},
	{"tcp", RunTCP},
}

// pattern is a recognisable n-byte payload.
func pattern(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + 3)
	}
	return p
}

// ownershipSizes spans an empty message, sizes below and inside the
// smallest pool class, and a payload several socket buffers long.
var ownershipSizes = []int{0, 1, 511, 4096, 1 << 20}

// TestSendOwnedDelivers: a pool buffer handed over with SendOwned arrives
// byte-exact, in order with plain sends on the same tag.
func TestSendOwnedDelivers(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			err := tr.run(2, func(c *Comm) error {
				if c.Rank() == 0 {
					for _, n := range ownershipSizes {
						if err := c.SendOwned(1, 5, append(bufpool.Get(n), pattern(n)...)); err != nil {
							return err
						}
						if err := c.Send(1, 5, pattern(n)); err != nil {
							return err
						}
					}
					return c.Barrier()
				}
				for _, n := range ownershipSizes {
					for k := 0; k < 2; k++ {
						data, src, err := c.Recv(0, 5)
						if err != nil {
							return err
						}
						if src != 0 || !bytes.Equal(data, pattern(n)) {
							return fmt.Errorf("%d-byte message %d arrived as %d bytes from rank %d", n, k, len(data), src)
						}
						bufpool.Put(data)
					}
				}
				return c.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSendOwnedRejectsBadArgs: argument errors still surface (and the
// handed-over buffer is not leaked into a mailbox).
func TestSendOwnedRejectsBadArgs(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if err := c.SendOwned(5, 1, bufpool.Get(8)); err == nil {
			return fmt.Errorf("send to rank 5 of 2 succeeded")
		}
		if err := c.SendOwned(0, -1, bufpool.Get(8)); err == nil {
			return fmt.Errorf("send on a reserved tag succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTCPOversizedFrameDropsConnection: a header declaring more than
// 1<<31 payload bytes closes the connection before any allocation, and
// delivers nothing.
func TestTCPOversizedFrameDropsConnection(t *testing.T) {
	w, err := newWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	tr := &tcpTransport{w: w, conns: make(map[int]*tcpConn)}
	if err := tr.listen(); err != nil {
		t.Fatal(err)
	}
	w.trans = tr
	defer func() {
		w.abort()
		tr.close()
	}()
	conn, err := net.Dial("tcp", tr.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hdr [tcpFrameHdr]byte
	binary.LittleEndian.PutUint32(hdr[12:], 1<<31+1)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("reader kept the connection open after an oversized header: %v", err)
	}
	c := &Comm{world: w}
	if _, _, err := c.RecvDeadline(AnySource, 0, 10*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("oversized frame delivered something: %v", err)
	}
}
