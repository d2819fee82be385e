// Package mpi is a small in-process SPMD message-passing runtime modeled
// on the MPI subset FanStore uses (§V-D): tagged point-to-point Send/Recv,
// Allgather for the metadata exchange, Bcast, Barrier, and a ring-neighbor
// helper for partition replication.
//
// Each rank runs as a goroutine with a tag-matched mailbox. This is the
// substitution for mpiexec-launched processes on a cluster: ordering
// semantics (non-overtaking per (src,tag) pair) and collective matching
// are preserved, so the FanStore daemon logic is exercised exactly as it
// would be across nodes.
package mpi

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"fanstore/internal/bufpool"
)

// AnySource matches messages from any rank in Recv.
const AnySource = -1

// ErrAborted is returned from blocked operations when another rank's
// function returned an error and the world shut down.
var ErrAborted = errors.New("mpi: world aborted")

// ErrTimeout is returned by RecvDeadline when no matching message arrives
// within the timeout. The message may still arrive later and stay queued
// in the mailbox, so deadline users should receive on tags they will not
// reuse (see internal/rpc's per-request response tags).
var ErrTimeout = errors.New("mpi: recv deadline exceeded")

// message is one in-flight message.
type message struct {
	src, tag int
	data     []byte
}

// mailbox is a rank's tag-matched receive queue.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []message
	closed bool
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) push(m message) error {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.closed {
		return ErrAborted
	}
	mb.queue = append(mb.queue, m)
	mb.cond.Broadcast()
	return nil
}

// pop blocks until a message matching (src, tag) is available.
func (mb *mailbox) pop(src, tag int) (message, error) {
	return mb.popDeadline(src, tag, time.Time{})
}

// popDeadline is pop with an optional deadline (zero means block forever).
// A timer goroutine broadcasts the condition at the deadline so waiters
// can observe the timeout.
func (mb *mailbox) popDeadline(src, tag int, deadline time.Time) (message, error) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	timed := !deadline.IsZero()
	if timed {
		t := time.AfterFunc(time.Until(deadline), func() {
			mb.mu.Lock()
			mb.cond.Broadcast()
			mb.mu.Unlock()
		})
		defer t.Stop()
	}
	for {
		for i, m := range mb.queue {
			if (src == AnySource || m.src == src) && m.tag == tag {
				mb.queue = append(mb.queue[:i], mb.queue[i+1:]...)
				return m, nil
			}
		}
		if mb.closed {
			return message{}, ErrAborted
		}
		if timed && !time.Now().Before(deadline) {
			return message{}, ErrTimeout
		}
		mb.cond.Wait()
	}
}

func (mb *mailbox) close() {
	mb.mu.Lock()
	mb.closed = true
	mb.cond.Broadcast()
	mb.mu.Unlock()
}

// transport moves one message between ranks. The in-process transport
// pushes straight into the destination mailbox; the TCP transport (see
// tcp.go) serializes over real sockets.
//
// Every buffer a transport delivers comes from the shared size-classed
// pool (internal/bufpool), and the receiver owns it. send leaves data
// with the caller; sendOwned takes buf, which must come from
// bufpool.Get, and either delivers it or recycles it.
type transport interface {
	send(src, dst, tag int, data []byte) error
	sendOwned(src, dst, tag int, buf []byte) error
	close()
}

// localTransport delivers via direct mailbox pushes.
type localTransport struct{ w *World }

func (t localTransport) send(src, dst, tag int, data []byte) error {
	var buf []byte // an empty message carries no buffer
	if len(data) > 0 {
		buf = append(bufpool.Get(len(data)), data...)
	}
	return t.sendOwned(src, dst, tag, buf)
}

func (t localTransport) sendOwned(src, dst, tag int, buf []byte) error {
	if err := t.w.boxes[dst].push(message{src: src, tag: tag, data: buf}); err != nil {
		bufpool.Put(buf)
		return err
	}
	return nil
}

func (t localTransport) close() {}

// World is a set of ranks sharing an interconnect.
type World struct {
	size  int
	boxes []*mailbox
	trans transport

	abortOnce sync.Once
}

// abort closes every mailbox, waking blocked ranks with ErrAborted.
// Joined worlds only materialize the local rank's mailbox; peer slots
// are nil.
func (w *World) abort() {
	w.abortOnce.Do(func() {
		for _, mb := range w.boxes {
			if mb != nil {
				mb.close()
			}
		}
	})
}

// Comm is one rank's handle on the world. Point-to-point operations are
// safe to call from multiple goroutines of the same rank (e.g. a FanStore
// daemon service loop next to the training loop); collective operations
// must be called by a single goroutine per rank, in the same order on
// every rank, matching MPI semantics.
type Comm struct {
	world *World
	rank  int

	collMu  sync.Mutex
	collSeq int
}

// Run starts n ranks, invoking f with each rank's Comm, and waits for all
// of them. The first non-nil error aborts the world (unblocking any rank
// stuck in Recv) and is returned. Messages move in-process; RunTCP runs
// the same contract over real sockets.
func Run(n int, f func(c *Comm) error) error {
	w, err := newWorld(n)
	if err != nil {
		return err
	}
	return w.run(f)
}

func newWorld(n int) (*World, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mpi: world size %d", n)
	}
	w := &World{size: n, boxes: make([]*mailbox, n)}
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	w.trans = localTransport{w: w}
	return w, nil
}

func (w *World) run(f func(c *Comm) error) error {
	n := w.size
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if err := f(&Comm{world: w, rank: r}); err != nil {
				errs[r] = err
				w.abort()
			}
		}(r)
	}
	wg.Wait()
	w.abort() // release any daemon goroutines still blocked in Recv
	w.trans.close()
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("mpi: rank %d: %w", r, err)
		}
	}
	return nil
}

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }

// Neighbor returns the next rank in the virtual ring topology used for
// extra-partition replication (§V-D).
func (c *Comm) Neighbor() int { return (c.rank + 1) % c.world.size }

// Send delivers data to dst with the given tag. The caller keeps data
// and may reuse it as soon as Send returns: the in-process transport
// copies it into a pool buffer, and the TCP transport writes it to the
// socket before returning. User tags must be non-negative.
func (c *Comm) Send(dst, tag int, data []byte) error {
	if tag < 0 {
		return fmt.Errorf("mpi: negative tags are reserved (tag %d)", tag)
	}
	return c.send(dst, tag, data)
}

// SendOwned is Send for a buffer the caller hands over: buf must come
// from bufpool.Get, and the caller must not touch it once SendOwned is
// called, whatever it returns. The in-process transport delivers that
// same slice to the receiver with no copy; the TCP transport writes it
// and recycles it. Either way the receiver gets a pool buffer it owns.
func (c *Comm) SendOwned(dst, tag int, buf []byte) error {
	if tag < 0 {
		bufpool.Put(buf)
		return fmt.Errorf("mpi: negative tags are reserved (tag %d)", tag)
	}
	if dst < 0 || dst >= c.world.size {
		bufpool.Put(buf)
		return fmt.Errorf("mpi: send to rank %d of %d", dst, c.world.size)
	}
	return c.world.trans.sendOwned(c.rank, dst, tag, buf)
}

func (c *Comm) send(dst, tag int, data []byte) error {
	if dst < 0 || dst >= c.world.size {
		return fmt.Errorf("mpi: send to rank %d of %d", dst, c.world.size)
	}
	return c.world.trans.send(c.rank, dst, tag, data)
}

// Recv blocks for a message from src (or AnySource) with the given tag
// and returns its payload and actual source. A non-empty payload is a
// pool buffer the receiver owns: it may keep it, or hand it back with
// bufpool.Put once nothing references it.
func (c *Comm) Recv(src, tag int) ([]byte, int, error) {
	if tag < 0 {
		return nil, 0, fmt.Errorf("mpi: negative tags are reserved (tag %d)", tag)
	}
	return c.recv(src, tag)
}

func (c *Comm) recv(src, tag int) ([]byte, int, error) {
	if src != AnySource && (src < 0 || src >= c.world.size) {
		return nil, 0, fmt.Errorf("mpi: recv from rank %d of %d", src, c.world.size)
	}
	m, err := c.world.boxes[c.rank].pop(src, tag)
	if err != nil {
		return nil, 0, err
	}
	return m.data, m.src, nil
}

// RecvDeadline is Recv bounded by a timeout: it returns ErrTimeout when
// no matching message arrives in time. A non-positive timeout blocks
// forever, exactly like Recv. A message that arrives after the deadline
// stays queued, so callers should use tags they never reuse.
func (c *Comm) RecvDeadline(src, tag int, timeout time.Duration) ([]byte, int, error) {
	if tag < 0 {
		return nil, 0, fmt.Errorf("mpi: negative tags are reserved (tag %d)", tag)
	}
	if src != AnySource && (src < 0 || src >= c.world.size) {
		return nil, 0, fmt.Errorf("mpi: recv from rank %d of %d", src, c.world.size)
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	m, err := c.world.boxes[c.rank].popDeadline(src, tag, deadline)
	if err != nil {
		return nil, 0, err
	}
	return m.data, m.src, nil
}

// Internal collective tag space: negative tags, keyed by (op, sequence).
const (
	opBarrierGather = -iota - 1
	opBarrierRelease
	opGather
	opScatterBack
	opBcast
	numOps = 5
)

func collTag(op, seq int) int {
	return op - numOps*seq
}

// nextSeq reserves a collective sequence number.
func (c *Comm) nextSeq() int {
	c.collMu.Lock()
	s := c.collSeq
	c.collSeq++
	c.collMu.Unlock()
	return s
}

// Barrier blocks until every rank has entered it.
func (c *Comm) Barrier() error {
	seq := c.nextSeq()
	if c.rank == 0 {
		for i := 1; i < c.world.size; i++ {
			if _, _, err := c.recv(AnySource, collTag(opBarrierGather, seq)); err != nil {
				return err
			}
		}
		for i := 1; i < c.world.size; i++ {
			if err := c.send(i, collTag(opBarrierRelease, seq), nil); err != nil {
				return err
			}
		}
		return nil
	}
	if err := c.send(0, collTag(opBarrierGather, seq), nil); err != nil {
		return err
	}
	_, _, err := c.recv(0, collTag(opBarrierRelease, seq))
	return err
}

// Allgather exchanges each rank's data so every rank returns the slice
// [rank0's data, rank1's data, ...]. This is how FanStore builds its
// global metadata view after partition loading (§IV-C1).
func (c *Comm) Allgather(data []byte) ([][]byte, error) {
	seq := c.nextSeq()
	n := c.world.size
	if c.rank == 0 {
		parts := make([][]byte, n)
		parts[0] = append([]byte(nil), data...)
		for i := 1; i < n; i++ {
			d, src, err := c.recv(AnySource, collTag(opGather, seq))
			if err != nil {
				return nil, err
			}
			parts[src] = d
		}
		flat := flatten(parts)
		for i := 1; i < n; i++ {
			if err := c.send(i, collTag(opScatterBack, seq), flat); err != nil {
				return nil, err
			}
		}
		return parts, nil
	}
	if err := c.send(0, collTag(opGather, seq), data); err != nil {
		return nil, err
	}
	flat, _, err := c.recv(0, collTag(opScatterBack, seq))
	if err != nil {
		return nil, err
	}
	return unflatten(flat)
}

// Bcast distributes root's data to every rank.
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	seq := c.nextSeq()
	if c.rank == root {
		for i := 0; i < c.world.size; i++ {
			if i == root {
				continue
			}
			if err := c.send(i, collTag(opBcast, seq), data); err != nil {
				return nil, err
			}
		}
		return data, nil
	}
	d, _, err := c.recv(root, collTag(opBcast, seq))
	return d, err
}

// flatten encodes a slice-of-slices with uvarint-free framing (4-byte
// lengths) for collective transport.
func flatten(parts [][]byte) []byte {
	size := 4
	for _, p := range parts {
		size += 4 + len(p)
	}
	out := make([]byte, 0, size)
	out = appendU32(out, uint32(len(parts)))
	for _, p := range parts {
		out = appendU32(out, uint32(len(p)))
		out = append(out, p...)
	}
	return out
}

func unflatten(flat []byte) ([][]byte, error) {
	if len(flat) < 4 {
		return nil, fmt.Errorf("mpi: bad collective frame")
	}
	n := int(readU32(flat))
	off := 4
	maxPossible := (len(flat) - off) / 4
	if n > maxPossible {
		return nil, fmt.Errorf("mpi: collective frame declares %d parts", n)
	}
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		if off+4 > len(flat) {
			return nil, fmt.Errorf("mpi: collective frame truncated")
		}
		l := int(readU32(flat[off:]))
		off += 4
		if l > len(flat)-off {
			return nil, fmt.Errorf("mpi: collective frame truncated")
		}
		out = append(out, flat[off:off+l:off+l])
		off += l
	}
	return out, nil
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func readU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
