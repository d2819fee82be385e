package main

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	rtmetrics "runtime/metrics"
	"syscall"
	"time"

	"fanstore"
	"fanstore/internal/prefetch"
)

// session is one launch of the ranks: transport start, Mount with its
// metadata Allgather, a warm-up pass, then (when window > 0) training
// epochs until the timed window has run for window.
type session struct {
	w      workload
	in     *inputs
	seed   int64
	window time.Duration // 0: return as soon as the timed window would open
	rec    *recorder     // nil: untraced
}

// rankResult is what one rank measured.
type rankResult struct {
	mount       time.Duration
	open, close time.Time       // the barriers that open and close the timed window
	steps       []time.Duration // Next + CRC + Allgather, per timed step
	samples     int64           // samples delivered in the timed window
	epochs      []epochEnd      // where each timed epoch ends in steps and samples
	// Samples delivered in the timed window that the other rank owns,
	// and their bytes (traced sessions only).
	remoteSamples, remoteBytes int64
	delta                      fanstore.RegistrySnapshot // registry change over the timed window
	attempted, failed          int64                     // sample reads and output checks, whole session
}

// epochEnd is a rank's step and sample count at the end of an epoch.
type epochEnd struct {
	steps   int
	samples int64
}

// mark is the wall clock and process CPU time at an epoch boundary.
type mark struct {
	at  time.Time
	cpu time.Duration
}

// result is one session's outcome.
type result struct {
	setup time.Duration // launch until rank 0 leaves the window-opening barrier
	ranks [ranks]rankResult
	rt    runtimeDelta // whole process, over rank 0's timed window
	// marks are rank 0's marks at the window's open and after every
	// timed epoch, when every rank has finished that epoch.
	marks []mark
}

func (r *result) window() time.Duration { return r.ranks[0].close.Sub(r.ranks[0].open) }

func (r *result) samples() int64 {
	var n int64
	for i := range r.ranks {
		n += r.ranks[i].samples
	}
	return n
}

func (r *result) samplesPerSecond() float64 {
	return div(float64(r.samples()), r.window().Seconds())
}

func (r *result) counts() (attempted, failed int64) {
	for i := range r.ranks {
		attempted += r.ranks[i].attempted
		failed += r.ranks[i].failed
	}
	return attempted, failed
}

// merged folds every rank's timed-window registry delta into one.
func (r *result) merged() fanstore.RegistrySnapshot {
	m := r.ranks[0].delta
	for i := 1; i < ranks; i++ {
		m = m.Merge(r.ranks[i].delta)
	}
	return m
}

// run launches the ranks and waits for them. The result carries the
// counts of attempted and failed reads even when err is set.
func (s *session) run() (*result, error) {
	res := &result{}
	launch := fanstore.Run
	if s.w.tcp {
		launch = fanstore.RunTCP
	}
	// Garbage from earlier sessions is the benchmark's, not the store's.
	runtime.GC()
	start := time.Now()
	err := launch(ranks, func(c *fanstore.Comm) error {
		l := &rankLoop{s: s, c: c, rank: c.Rank(), out: &res.ranks[c.Rank()]}
		return l.run(res, start)
	})
	return res, err
}

// rankLoop is one rank's training loop.
type rankLoop struct {
	s    *session
	c    *fanstore.Comm
	rank int
	node *fanstore.Node
	reg  *fanstore.Registry
	out  *rankResult
	// remote marks, by dataset index, the files the other rank owns
	// (traced sessions only).
	remote []bool
	step   int // global step number of the next iteration
}

func (l *rankLoop) run(res *result, launched time.Time) error {
	w, in := l.s.w, l.s.in
	l.reg = fanstore.NewRegistry()
	opts := fanstore.Options{CacheBytes: w.cacheBytes, Metrics: l.reg}
	if l.s.rec != nil {
		opts.Backend = &tracedBackend{Backend: fanstore.NewRAMBackend(), rec: l.s.rec, rank: int8(l.rank)}
	}
	t := time.Now()
	node, err := fanstore.Mount(l.c, [][]byte{in.parts[l.rank]}, nil, opts)
	l.out.mount = time.Since(t)
	if err != nil {
		return fmt.Errorf("mount: %w", err)
	}
	defer node.Close()
	l.node = node

	if w.warmAll {
		err = l.readAll()
	} else {
		err = l.epoch(0, false)
	}
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if l.s.rec != nil {
		l.remote = make([]bool, len(in.paths))
		for i, p := range in.paths {
			_, l.remote[i] = node.PlanTarget(p)
		}
	}
	if err := l.c.Barrier(); err != nil {
		return err
	}
	l.out.open = time.Now()
	if l.rank == 0 {
		res.setup = l.out.open.Sub(launched)
	}
	if l.s.window == 0 {
		return nil
	}

	before := l.reg.Snapshot()
	var probe *runtimeProbe
	if l.rank == 0 {
		probe = startProbe()
		res.marks = append(res.marks, mark{l.out.open, processCPU()})
	}
	for epoch := 1; ; epoch++ {
		if err := l.epoch(epoch, true); err != nil {
			if probe != nil {
				probe.stop()
			}
			return err
		}
		// Rank 0 alone decides when the window closes, so every rank
		// runs the same number of epochs (and of collectives).
		more := []byte{0}
		if l.rank == 0 && time.Since(l.out.open) < l.s.window && !l.s.rec.nearlyFull() {
			more[0] = 1
		}
		got, err := l.c.Bcast(0, more)
		if err != nil {
			return err
		}
		l.out.epochs = append(l.out.epochs, epochEnd{len(l.out.steps), l.out.samples})
		if l.rank == 0 {
			res.marks = append(res.marks, mark{time.Now(), processCPU()})
		}
		if got[0] == 0 {
			break
		}
	}
	if err := l.c.Barrier(); err != nil {
		return err
	}
	l.out.close = time.Now()
	l.out.delta = l.reg.Snapshot().Delta(before)
	if probe != nil {
		res.rt = probe.stop()
	}
	return nil
}

// readAll is the warm-up that reads every file once on this rank,
// checking each against its source CRC.
func (l *rankLoop) readAll() error {
	in, batch := l.s.in, l.s.w.batch
	pipe := prefetch.New(l.node, prefetch.RangeSampler(in.paths, batch, 0, 1),
		prefetch.Options{Workers: ioWorkers, Depth: pipeDepth, Metrics: l.reg})
	defer pipe.Stop()
	for it := 0; ; it++ {
		b, ok, err := pipe.Next()
		if err != nil {
			l.out.attempted++
			l.out.failed++
			return err
		}
		if !ok {
			return nil
		}
		for j, data := range b.Data {
			i := it*batch + j
			l.out.attempted++
			if b.Paths[j] != in.paths[i] || crc32.ChecksumIEEE(data) != in.crcs[i] {
				l.out.failed++
			}
		}
	}
}

// epoch trains one epoch over a fresh permutation. Each step takes the
// next batch, CRC-checks every sample against its source, and
// allgathers the batch digest (XOR of the sample CRCs), checking every
// rank's digest against the sampler's iteration. Steps of a timed epoch
// are recorded.
func (l *rankLoop) epoch(epoch int, timed bool) error {
	w, in := l.s.w, l.s.in
	order := rand.New(rand.NewSource(l.s.seed*1_000_003 + int64(epoch))).Perm(len(in.paths))
	shuffled := make([]string, len(order))
	for i, idx := range order {
		shuffled[i] = in.paths[idx]
	}
	sampler := prefetch.RangeSampler(shuffled, w.batch, l.rank, ranks)
	iters := prefetch.SamplerIters(len(shuffled), w.batch, ranks)
	step0 := l.step
	l.step += iters
	pipe := l.pipeline(sampler, step0, iters, timed)
	defer pipe.Stop()

	digest := func(it, rank int) uint32 {
		var d uint32
		lo := stripe(it, rank, w.batch)
		for k := lo; k < min(lo+w.batch, len(order)); k++ {
			d ^= in.crcs[order[k]]
		}
		return d
	}
	for it := 0; it < iters; it++ {
		want, _ := sampler(it)
		base := stripe(it, l.rank, w.batch)
		l.out.attempted += int64(len(want))

		t0 := time.Now()
		b, ok, err := pipe.Next()
		t1 := time.Now()
		if err == nil && !ok {
			err = errors.New("pipeline ended early")
		}
		if err != nil {
			l.out.failed += int64(len(want))
			return fmt.Errorf("epoch %d iter %d: %w", epoch, it, err)
		}
		match := b.Index == it && len(b.Paths) == len(want) && len(b.Data) == len(want)
		if !match {
			l.out.failed += int64(len(want))
		}
		var sum uint32
		for j, data := range b.Data {
			c := crc32.ChecksumIEEE(data)
			sum ^= c
			if match && (b.Paths[j] != want[j] || c != in.crcs[order[base+j]]) {
				l.out.failed++
			}
		}
		t2 := time.Now()
		parts, err := l.c.Allgather([]byte{byte(sum), byte(sum >> 8), byte(sum >> 16), byte(sum >> 24)})
		t3 := time.Now()
		if err != nil {
			return fmt.Errorf("epoch %d iter %d: allgather: %w", epoch, it, err)
		}
		for r, p := range parts {
			if len(p) != 4 || uint32(p[0])|uint32(p[1])<<8|uint32(p[2])<<16|uint32(p[3])<<24 != digest(it, r) {
				l.out.failed++
			}
		}

		if !timed {
			continue
		}
		l.out.steps = append(l.out.steps, t3.Sub(t0))
		l.out.samples += int64(len(b.Data))
		if l.remote != nil && match {
			for j, data := range b.Data {
				if l.remote[order[base+j]] {
					l.out.remoteSamples++
					l.out.remoteBytes += int64(len(data))
				}
			}
		}
		l.s.rec.step(l.rank, step0+it, t0, t1, t2, t3)
	}
	return nil
}

// stripe is the first permutation position of rank's batch in
// iteration it, following prefetch.RangeSampler's layout.
func stripe(it, rank, batch int) int { return (it*ranks + rank) * batch }

// pipeline builds the epoch's prefetch pipeline over the node, with the
// benchmark's timing wrappers around the reader and the staging store
// in a traced timed epoch.
func (l *rankLoop) pipeline(sampler prefetch.Sampler, step0, iters int, timed bool) *prefetch.Pipeline {
	var reader prefetch.Reader = l.node
	var store prefetch.PlanStore = l.node
	if l.s.rec != nil && timed {
		reader = l.s.rec.reader(l.rank, l.node, sampler, step0, iters)
		store = &tracedStore{PlanStore: l.node, rec: l.s.rec, rank: int8(l.rank)}
	}
	opts := prefetch.Options{Workers: ioWorkers, Depth: pipeDepth, Metrics: l.reg}
	switch {
	case l.s.w.plan:
		opts.Scheduler = prefetch.NewScheduler(store, prefetch.BuildPlan(sampler, store), prefetch.SchedOptions{
			AdmissionSource: l.node.AdmissionBytes,
			Metrics:         l.reg,
		})
	case l.s.w.lookahead > 0:
		opts.Prefetcher = store
		opts.Lookahead = l.s.w.lookahead
	}
	return prefetch.New(reader, sampler, opts)
}

// runtimeDelta is the process's CPU, allocation and GC over a window,
// and the peak of its live-and-unswept heap objects.
type runtimeDelta struct {
	cpu        time.Duration // user + system
	allocBytes uint64
	gcCycles   uint64
	heapPeak   uint64
}

// heapSampleEvery is the heap sampling period of a runtimeProbe.
const heapSampleEvery = 5 * time.Millisecond

var probeMetrics = []string{
	"/memory/classes/heap/objects:bytes",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

// runtimeProbe measures a runtimeDelta: counters at start and stop, and
// a goroutine sampling the heap in between.
type runtimeProbe struct {
	cpu0       time.Duration
	allocs0    uint64
	gcs0       uint64
	peak       uint64 // written by the sampler, read once it has exited
	done, quit chan struct{}
}

// processCPU is the user plus system CPU time of the whole process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readRuntime() (cpu time.Duration, heap, allocs, gcs uint64) {
	cpu = processCPU()
	s := make([]rtmetrics.Sample, len(probeMetrics))
	for i, n := range probeMetrics {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	return cpu, s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()
}

func startProbe() *runtimeProbe {
	p := &runtimeProbe{done: make(chan struct{}), quit: make(chan struct{})}
	p.cpu0, p.peak, p.allocs0, p.gcs0 = readRuntime()
	go func() {
		defer close(p.done)
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		s := []rtmetrics.Sample{{Name: probeMetrics[0]}}
		for {
			select {
			case <-p.quit:
				return
			case <-tick.C:
				rtmetrics.Read(s)
				p.peak = max(p.peak, s[0].Value.Uint64())
			}
		}
	}()
	return p
}

func (p *runtimeProbe) stop() runtimeDelta {
	close(p.quit)
	<-p.done
	cpu, heap, allocs, gcs := readRuntime()
	return runtimeDelta{cpu: cpu - p.cpu0, allocBytes: allocs - p.allocs0, gcCycles: gcs - p.gcs0, heapPeak: max(p.peak, heap)}
}
