package main

import (
	"fmt"
	"sort"
	"time"
)

// metric is one reported number. base names the counts a ratio or a
// mean is built from, so every ratio is printed beside its base.
type metric struct {
	name  string
	unit  string
	value float64
	base  string
}

// div is a/b, or 0 when b is 0 (a ratio with no base is reported as 0,
// its base counts show why).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// quantile is the nearest-rank q-quantile of d.
func quantile(d []time.Duration, q float64) time.Duration {
	ns := make([]int64, len(d))
	for i, v := range d {
		ns[i] = int64(v)
	}
	sort.Slice(ns, func(a, b int) bool { return ns[a] < ns[b] })
	return time.Duration(quantileNs(ns, q))
}

// Slices of the timed window. On a shared host, outside load slows the
// program for seconds at a time. The end-to-end rates and the step tail
// are taken over the fastest half of the window's slices, the part of
// the window the host disturbed least. A slower program is slower in
// every slice, so it shows there too.
const (
	windowSlices  = 30
	quietShare    = 2    // the fastest 1/quietShare of the slices are pooled
	minSliceSteps = 1000 // so at least ten steps lie beyond the pooled p99
)

// slice is a run of whole epochs of the timed window.
type slice struct {
	dur, cpu time.Duration
	samples  int64
	steps    []time.Duration
}

func (s slice) rate() float64 { return div(float64(s.samples), s.dur.Seconds()) }

// slices cuts the timed window at epoch boundaries into runs of at least
// 1/windowSlices of the window and minSliceSteps steps. A trailing
// remainder shorter than that is dropped unless it is all there is.
func (r *result) slices() []slice {
	var out []slice
	minDur := r.marks[len(r.marks)-1].at.Sub(r.marks[0].at) / windowSlices
	cur := slice{}
	from := 0 // first epoch of cur
	for e := 0; e+1 < len(r.marks); e++ {
		for i := range r.ranks {
			rr := &r.ranks[i]
			var s0 int
			var n0 int64
			if e > 0 {
				s0, n0 = rr.epochs[e-1].steps, rr.epochs[e-1].samples
			}
			cur.steps = append(cur.steps, rr.steps[s0:rr.epochs[e].steps]...)
			cur.samples += rr.epochs[e].samples - n0
		}
		cur.dur = r.marks[e+1].at.Sub(r.marks[from].at)
		cur.cpu = r.marks[e+1].cpu - r.marks[from].cpu
		if cur.dur >= minDur && len(cur.steps) >= minSliceSteps {
			out = append(out, cur)
			cur, from = slice{}, e+1
		}
	}
	if len(out) == 0 {
		out = append(out, cur)
	}
	return out
}

// quietest pools the fastest 1/quietShare of the slices (at least one)
// by samples per second, and returns the pool and how many it took.
func quietest(sl []slice) (slice, int) {
	sorted := append([]slice(nil), sl...)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].rate() > sorted[b].rate() })
	n := max(1, len(sorted)/quietShare)
	var pool slice
	for _, s := range sorted[:n] {
		pool.dur += s.dur
		pool.cpu += s.cpu
		pool.samples += s.samples
		pool.steps = append(pool.steps, s.steps...)
	}
	return pool, n
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// endToEnd derives the user-facing metrics from an untraced session and
// the set-up times of every launch in the run.
func endToEnd(res *result, in *inputs, setups []time.Duration) []metric {
	sl := res.slices()
	q, n := quietest(sl)
	var setup []float64
	for _, d := range setups {
		setup = append(setup, d.Seconds())
	}
	of := fmt.Sprintf("fastest %d of %d slices: samples=%d in %.3fs; window: samples=%d in %.3fs",
		n, len(sl), q.samples, q.dur.Seconds(), res.samples(), res.window().Seconds())
	return []metric{
		{"samples_per_s", "samples/s", q.rate(), of},
		{"step_p99_ms", "ms", float64(quantile(q.steps, 0.99)) / 1e6,
			fmt.Sprintf("fastest %d of %d slices: %d steps", n, len(sl), len(q.steps))},
		{"cpu_us_per_sample", "us", div(us(int64(q.cpu)), float64(q.samples)),
			fmt.Sprintf("fastest %d of %d slices: cpu=%.3fs / samples=%d", n, len(sl), q.cpu.Seconds(), q.samples)},
		{"heap_peak_mb", "MiB", float64(res.rt.heapPeak) / (1 << 20),
			fmt.Sprintf("sampled every %v", heapSampleEvery)},
		{"bytes_stored_per_byte", "ratio", div(float64(in.storedBytes), float64(in.rawBytes)),
			fmt.Sprintf("stored=%d / raw=%d", in.storedBytes, in.rawBytes)},
		{"setup_s", "s", median(setup),
			fmt.Sprintf("median of %d launches", len(setups))},
	}
}

// perLayer derives the per-layer metrics of a traced session: outside
// timings from its spans, the registry's change over its timed window,
// and the tracing overhead against an untraced session of the same run.
func perLayer(res *result, ts *traceSummary, in *inputs, untracedSPS float64) []metric {
	d := res.merged()
	c := func(name string) float64 { return float64(d.Counters[name]) }
	hmean := func(name string) (float64, string) {
		h := d.Histograms[name]
		return div(float64(h.Sum), float64(h.Count)), fmt.Sprintf("%s: n=%d sum=%dus", name, h.Count, h.Sum)
	}
	samples := float64(res.samples())
	steps := float64(ts.count[spanStep])
	var remoteSamples, remoteBytes float64
	var mount time.Duration
	for i := range res.ranks {
		remoteSamples += float64(res.ranks[i].remoteSamples)
		remoteBytes += float64(res.ranks[i].remoteBytes)
		mount = max(mount, res.ranks[i].mount)
	}
	tracedSPS := res.samplesPerSecond()

	var out []metric
	add := func(name, unit string, v float64, base string) { out = append(out, metric{name, unit, v, base}) }
	perSample := func(name, counter string) {
		add(name, "1/sample", div(c(counter), samples), fmt.Sprintf("%s=%d / samples=%d", counter, int64(c(counter)), int64(samples)))
	}
	spanMean := func(k spanKind) (float64, string) {
		return div(us(ts.total[k]), float64(ts.count[k])), fmt.Sprintf("%s spans=%d", spanNames[k], ts.count[k])
	}
	perStep := func(k spanKind) (float64, string) {
		return div(us(ts.total[k]), steps), fmt.Sprintf("%s total=%.1fms / steps=%d", spanNames[k], us(ts.total[k])/1e3, int64(steps))
	}
	stepsBase := fmt.Sprintf("steps=%d", int64(steps))

	// train
	add("train.step_p50_ms", "ms", float64(quantileNs(ts.durs[spanStep], 0.5))/1e6, stepsBase)
	v, b := perStep(spanCRC)
	add("train.crc_us_per_step", "us", v, b)

	// prefetch
	v, b = perStep(spanNext)
	add("prefetch.next_wait_us_per_step", "us", v, b)
	add("prefetch.stall_share", "ratio", div(c("prefetch.stalls"), c("prefetch.batches")),
		fmt.Sprintf("stalls=%d / batches=%d", int64(c("prefetch.stalls")), int64(c("prefetch.batches"))))
	v, b = hmean("prefetch.batch.latency")
	add("prefetch.batch_ms_mean", "ms", v/1e3, b)
	prefetched := c("fanstore.cache.prefetched_opens")
	add("prefetch.plan.useful_ratio", "ratio", div(prefetched, c("prefetch.plan.staged")),
		fmt.Sprintf("prefetched_opens=%d / plan.staged=%d", int64(prefetched), int64(c("prefetch.plan.staged"))))
	add("prefetch.plan.admission_waits", "count", c("prefetch.plan.admission.waits"), "timed window")
	add("prefetch.window.useful_ratio", "ratio", div(prefetched, prefetched+c("fanstore.opens.remote")),
		fmt.Sprintf("prefetched_opens=%d / (prefetched_opens + opens.remote=%d)", int64(prefetched), int64(c("fanstore.opens.remote"))))
	v, b = spanMean(spanPrefetch)
	add("prefetch.call_us_mean", "us", v, b)

	// fanstore: open path, cache, singleflight, backend
	reads := ts.durs[spanRead]
	readBase := fmt.Sprintf("read spans=%d", len(reads))
	add("fanstore.read_us_p50", "us", us(quantileNs(reads, 0.5)), readBase)
	add("fanstore.read_us_p99", "us", us(quantileNs(reads, 0.99)), readBase)
	hits, misses := c("fanstore.cache.hits"), c("fanstore.cache.misses")
	add("fanstore.cache.hit_ratio", "ratio", div(hits, hits+misses),
		fmt.Sprintf("hits=%d / (hits + misses=%d)", int64(hits), int64(misses)))
	perSample("fanstore.cache.evictions_per_sample", "fanstore.cache.evictions")
	perSample("fanstore.opens.remote_per_sample", "fanstore.opens.remote")
	perSample("fanstore.opens.zerocopy_per_sample", "fanstore.opens.zerocopy")
	perSample("fanstore.fetch.coalesced_per_sample", "fanstore.fetch.coalesced")
	perSample("fanstore.prefetch.suppressed_per_sample", "fanstore.prefetch.suppressed")
	v, b = hmean("fanstore.fetch.latency")
	add("fanstore.fetch_us_mean", "us", v, b)
	v, b = spanMean(spanGet)
	add("fanstore.backend.get_us_mean", "us", v, b)
	add("fanstore.backend.gets_per_sample", "1/sample", div(float64(ts.count[spanGet]), samples),
		fmt.Sprintf("backend.get spans=%d / samples=%d", ts.count[spanGet], int64(samples)))

	// decomp and codec
	v, b = hmean("decomp.queue.wait.latency")
	add("decomp.queue_wait_us_mean", "us", v, b)
	perSample("decomp.jobs_per_sample", "decomp.jobs")
	perSample("fanstore.decompresses_per_sample", "fanstore.decompresses")
	v, b = hmean("fanstore.decompress.latency")
	add("codec.decode_us_mean", "us", v, b)
	// Decoded bytes are counted as decompresses times the mean file size
	// (exact for fixed-size files such as em-decode's).
	decoded := c("fanstore.decompresses") * float64(in.rawBytes) / float64(len(in.paths))
	decodeUs := float64(d.Histograms["fanstore.decompress.latency"].Sum)
	add("codec.decode_mb_per_s", "MB/s", div(decoded, decodeUs),
		fmt.Sprintf("decoded=%.0fB / decode time=%.0fus", decoded, decodeUs))

	// rpc
	add("rpc.calls_per_remote_sample", "1/sample", div(c("rpc.client.calls"), remoteSamples),
		fmt.Sprintf("rpc.client.calls=%d / remote samples=%d", int64(c("rpc.client.calls")), int64(remoteSamples)))
	v, b = hmean("rpc.client.attempt.latency")
	add("rpc.attempt_us_mean", "us", v, b)
	v, b = hmean("rpc.server.service.latency")
	add("rpc.service_us_mean", "us", v, b)
	add("rpc.server_queue_max", "count", float64(d.Gauges["rpc.server.queue"].Max), "high-water since mount, max over ranks")
	add("rpc.wire_bytes_per_sample", "B/sample", div(c("fanstore.bytes.remote"), samples),
		fmt.Sprintf("bytes.remote=%d / samples=%d", int64(c("fanstore.bytes.remote")), int64(samples)))
	add("rpc.wire_amplification", "ratio", div(c("fanstore.bytes.remote"), remoteBytes),
		fmt.Sprintf("bytes.remote=%d / remote sample bytes=%d", int64(c("fanstore.bytes.remote")), int64(remoteBytes)))
	add("rpc.retries", "count", c("rpc.client.retries"), "timed window")
	add("rpc.timeouts", "count", c("rpc.client.timeouts"), "timed window")
	errs := c("rpc.server.errors") + c("rpc.server.notfound")
	add("rpc.errors", "count", errs, fmt.Sprintf("server errors=%d + notfound=%d", int64(c("rpc.server.errors")), int64(c("rpc.server.notfound"))))

	// mpi
	ag := ts.durs[spanAllgather]
	agBase := fmt.Sprintf("allgather spans=%d", len(ag))
	add("mpi.allgather_us_p50", "us", us(quantileNs(ag, 0.5)), agBase)
	add("mpi.allgather_us_p99", "us", us(quantileNs(ag, 0.99)), agBase)
	add("mpi.mount_s", "s", mount.Seconds(), "slowest rank's Mount")

	// runtime
	add("runtime.alloc_bytes_per_sample", "B/sample", div(float64(res.rt.allocBytes), samples),
		fmt.Sprintf("allocated=%d / samples=%d", res.rt.allocBytes, int64(samples)))
	add("runtime.gc_cycles_per_ksample", "count/ksample", div(float64(res.rt.gcCycles), samples/1e3),
		fmt.Sprintf("gc cycles=%d / samples=%d", res.rt.gcCycles, int64(samples)))

	// Self time per layer, from the spans.
	for _, layer := range []string{"train", "prefetch", "fanstore", "backend", "mpi"} {
		add("self."+layer+"_us_per_step", "us", div(us(ts.selfNs[layer]), steps),
			fmt.Sprintf("self=%.1fms / %s", us(ts.selfNs[layer])/1e3, stepsBase))
	}

	// How much of the work the intended layer does: the codec's share of
	// the process's CPU, and rpc's share of the time spent in calls into
	// the store (reads and staging calls, inside which every rpc attempt
	// runs).
	add("codec.cpu_share", "ratio", div(decodeUs, us(int64(res.rt.cpu))),
		fmt.Sprintf("decode time=%.1fms / process cpu=%.1fms", decodeUs/1e3, us(int64(res.rt.cpu))/1e3))
	rpcUs := float64(d.Histograms["rpc.client.attempt.latency"].Sum)
	pathUs := us(ts.total[spanRead] + ts.total[spanPrefetch])
	add("rpc.path_share", "ratio", div(rpcUs, pathUs),
		fmt.Sprintf("rpc attempts=%.1fms / read+prefetch.call=%.1fms", rpcUs/1e3, pathUs/1e3))

	add("trace.samples_per_s_untraced", "samples/s", untracedSPS, "untraced window of the same run")
	add("trace.samples_per_s_traced", "samples/s", tracedSPS,
		fmt.Sprintf("samples=%d / window=%.3fs", int64(samples), res.window().Seconds()))
	add("trace.overhead_share", "ratio", div(untracedSPS-tracedSPS, untracedSPS), "(untraced - traced) / untraced samples_per_s")
	add("trace.dropped_spans", "count", float64(ts.dropped), "spans past the in-memory buffer")
	return out
}
