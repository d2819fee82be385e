package mpi

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"fanstore/internal/bufpool"
)

// RunTCP starts n ranks whose messages travel over real TCP connections
// on the loopback interface — the same SPMD contract as Run, but
// exercising frame serialization, the kernel network stack, and
// concurrent socket writers, as an mpiexec deployment over an IP fabric
// would. One connection is established per ordered rank pair on demand.
func RunTCP(n int, f func(c *Comm) error) error {
	w, err := newWorld(n)
	if err != nil {
		return err
	}
	t := &tcpTransport{w: w, conns: make(map[int]*tcpConn)}
	if err := t.listen(); err != nil {
		return err
	}
	w.trans = t
	return w.run(f)
}

// tcpFrame is the wire format: src, tag (zigzag: collectives use negative
// tags), payload length, payload.
//
//	u32 src | u64 zigzag(tag) | u32 len | len bytes
const tcpFrameHdr = 4 + 8 + 4

// tcpTransport carries messages over per-destination TCP connections.
// Listeners feed received frames straight into the local mailboxes.
type tcpTransport struct {
	w         *World
	listeners []net.Listener
	addrs     []string
	// dir enables lazy address resolution: an empty addrs slot is
	// resolved from the rendezvous directory at first dial, so a world
	// can start before every slot has published (JoinTCPMembers).
	dir string

	mu    sync.Mutex
	conns map[int]*tcpConn // key: src*size + dst
	done  sync.WaitGroup
}

// tcpConn pairs a connection with its writer lock, so concurrent senders
// to the same destination serialize without stalling other destinations.
// hdr and iov are the frame header and the write vector, reused by every
// send under mu.
type tcpConn struct {
	mu  sync.Mutex
	c   net.Conn
	hdr [tcpFrameHdr]byte
	iov [2][]byte
}

// listen opens one listener per rank and starts accept loops.
func (t *tcpTransport) listen() error {
	n := t.w.size
	t.listeners = make([]net.Listener, n)
	t.addrs = make([]string, n)
	for r := 0; r < n; r++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.close()
			return fmt.Errorf("mpi: tcp listen: %w", err)
		}
		t.listeners[r] = l
		t.addrs[r] = l.Addr().String()
	}
	for r := 0; r < n; r++ {
		r := r
		t.done.Add(1)
		go func() {
			defer t.done.Done()
			for {
				conn, err := t.listeners[r].Accept()
				if err != nil {
					return // listener closed at shutdown
				}
				t.done.Add(1)
				go func() {
					defer t.done.Done()
					t.reader(r, conn)
				}()
			}
		}()
	}
	return nil
}

// reader drains one inbound connection into rank r's mailbox. Each
// payload is read into a pool buffer that the receiver then owns.
func (t *tcpTransport) reader(r int, conn net.Conn) {
	defer conn.Close()
	var hdr [tcpFrameHdr]byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return // peer closed (shutdown) or failed
		}
		src := int(binary.LittleEndian.Uint32(hdr[:4]))
		z := binary.LittleEndian.Uint64(hdr[4:12])
		tag := int(int64(z>>1) ^ -int64(z&1))
		length := int(binary.LittleEndian.Uint32(hdr[12:16]))
		if src < 0 || src >= t.w.size || length < 0 || length > 1<<31 {
			return
		}
		var data []byte
		if length > 0 {
			data = bufpool.Get(length)[:length]
			if _, err := io.ReadFull(conn, data); err != nil {
				bufpool.Put(data)
				return
			}
		}
		if t.w.boxes[r].push(message{src: src, tag: tag, data: data}) != nil {
			return // world aborted
		}
	}
}

// conn returns (dialing if needed) the connection for the (src, dst)
// ordered pair. A dedicated connection per pair keeps the per-(src,tag)
// non-overtaking guarantee: TCP preserves order within a connection.
func (t *tcpTransport) conn(src, dst int) (*tcpConn, error) {
	key := src*t.w.size + dst
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := t.conns[key]; ok {
		return c, nil
	}
	addr := t.addrs[dst]
	if addr == "" {
		if t.dir == "" {
			return nil, fmt.Errorf("mpi: tcp dial rank %d: no address", dst)
		}
		// Lazy rendezvous: the slot joined after this world formed (an
		// elastic spare); its address file appears when it comes up.
		resolved, err := readRendezvousAddr(t.dir, dst)
		if err != nil {
			return nil, fmt.Errorf("mpi: tcp dial rank %d: %w", dst, err)
		}
		t.addrs[dst] = resolved
		addr = resolved
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("mpi: tcp dial rank %d: %w", dst, err)
	}
	tc := &tcpConn{c: c}
	t.conns[key] = tc
	return tc, nil
}

// send writes the frame header and data to the (src, dst) connection in
// one vectored write: no frame is assembled, so the payload is never
// copied in user space. The write completes before send returns, so the
// caller keeps data.
func (t *tcpTransport) send(src, dst, tag int, data []byte) error {
	c, err := t.conn(src, dst)
	if err != nil {
		return err
	}
	// Serialize writers per connection: a rank's daemon and main
	// goroutine may send to the same destination concurrently.
	c.mu.Lock()
	binary.LittleEndian.PutUint32(c.hdr[:4], uint32(src))
	z := uint64(int64(tag)<<1) ^ uint64(int64(tag)>>63)
	binary.LittleEndian.PutUint64(c.hdr[4:12], z)
	binary.LittleEndian.PutUint32(c.hdr[12:16], uint32(len(data)))
	c.iov = [2][]byte{c.hdr[:], data}
	bufs := net.Buffers(c.iov[:])
	_, err = bufs.WriteTo(c.c)
	c.iov[1] = nil // do not pin the caller's buffer
	c.mu.Unlock()
	if err != nil {
		return fmt.Errorf("mpi: tcp send to rank %d: %w", dst, err)
	}
	return nil
}

// sendOwned writes buf like send and then recycles it.
func (t *tcpTransport) sendOwned(src, dst, tag int, buf []byte) error {
	err := t.send(src, dst, tag, buf)
	bufpool.Put(buf)
	return err
}

func (t *tcpTransport) close() {
	for _, l := range t.listeners {
		if l != nil {
			l.Close()
		}
	}
	t.mu.Lock()
	for _, c := range t.conns {
		c.c.Close()
	}
	t.conns = map[int]*tcpConn{}
	t.mu.Unlock()
	t.done.Wait()
}
