package main

import (
	"testing"
	"time"
)

// Workload-shape checks, on each workload with its file sizes and cache
// shrunk eightfold, so every cache relation holds. They fail if a change
// to the store silently turns one workload into another.

const (
	testSeed   = 7
	testShrink = 8
	testWindow = time.Second // split between the untraced and the traced session
)

// shrink divides every file's size and the cache size by div and keeps
// the file counts. Every byte relation of the workload holds — the cache
// against one epoch, against the remote set and against the look-ahead
// window — while the dataset gets small enough for a unit test.
func (w workload) shrink(div int) workload {
	size := w.fileSize
	if size == 0 {
		size = int(w.kind.Spec().AvgSize)
	}
	w.fileSize = size / div
	w.cacheBytes /= int64(div)
	return w
}

// shape runs the workload's traced run and returns its timed-window
// registry counters and per-layer metrics.
func shape(t *testing.T, name string) (counters map[string]int64, ms map[string]float64) {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w = w.shrink(testShrink)
	in, err := prepare(w, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := runTraced(w, in, testSeed, testWindow)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []*result{tr.base, tr.res} {
		attempted, failed := res.counts()
		if attempted == 0 || failed != 0 {
			t.Fatalf("attempted %d reads, %d failed", attempted, failed)
		}
		if res.samples() == 0 {
			t.Fatal("no samples in the timed window")
		}
	}
	ms = map[string]float64{}
	for _, m := range perLayer(tr.res, tr.spans, in, tr.base.samplesPerSecond()) {
		ms[m.name] = m.value
	}
	return tr.res.merged().Counters, ms
}

func TestEMDecodeShape(t *testing.T) {
	c, ms := shape(t, "em-decode")
	if v := ms["fanstore.decompresses_per_sample"]; v < 0.9 || v > 1.1 {
		t.Errorf("decompresses per sample = %.3f, want about 1 (every sample decoded every epoch)", v)
	}
	if c["prefetch.plan.staged"] == 0 {
		t.Error("plan scheduler staged nothing")
	}
	if c["fanstore.opens.zerocopy"] != 0 {
		t.Errorf("%d zero-copy opens on a compressed dataset", c["fanstore.opens.zerocopy"])
	}
}

func TestImageNetFetchShape(t *testing.T) {
	c, ms := shape(t, "imagenet-fetch")
	if c["fanstore.opens.zerocopy"] == 0 {
		t.Error("no zero-copy local opens")
	}
	if v := ms["rpc.wire_amplification"]; v < 0.85 || v > 1.15 {
		t.Errorf("rpc.wire_amplification = %.3f, want about 1", v)
	}
	if c["prefetch.plan.items"] != 0 || c["prefetch.plan.staged"] != 0 {
		t.Errorf("plan items %d, staged %d; want none on the reactive window", c["prefetch.plan.items"], c["prefetch.plan.staged"])
	}
	if c["rpc.client.calls"] == 0 {
		t.Error("no rpc calls")
	}
}

func TestTokamakHotShape(t *testing.T) {
	c, ms := shape(t, "tokamak-hot")
	if c["fanstore.decompresses"] != 0 {
		t.Errorf("%d decompresses in the timed window, want 0", c["fanstore.decompresses"])
	}
	if c["rpc.client.calls"] != 0 {
		t.Errorf("%d rpc calls in the timed window, want 0", c["rpc.client.calls"])
	}
	if v := ms["fanstore.cache.hit_ratio"]; v != 1 {
		t.Errorf("cache hit ratio = %v, want 1", v)
	}
}

// Every workload's untraced run reports every end-to-end metric, none of
// them 0, with no failed read.
func TestEndToEndMetrics(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w := w.shrink(testShrink)
			ms, attempted, failed, err := bench(w, testSeed, testWindow/2, false, "")
			if err != nil {
				t.Fatal(err)
			}
			if attempted == 0 || failed != 0 {
				t.Fatalf("attempted %d, failed %d", attempted, failed)
			}
			want := []string{"samples_per_s", "step_p99_ms", "cpu_us_per_sample", "heap_peak_mb", "bytes_stored_per_byte", "setup_s"}
			if len(ms) != len(want) {
				t.Fatalf("%d metrics, want %d", len(ms), len(want))
			}
			for i, m := range ms {
				if m.name != want[i] || !(m.value > 0) {
					t.Errorf("metric %d: %s = %v, want %s > 0", i, m.name, m.value, want[i])
				}
			}
		})
	}
}

func TestCovered(t *testing.T) {
	spans := []span{{start: 0, end: 10}, {start: 5, end: 20}, {start: 30, end: 40}, {start: 50, end: 60}}
	if got := covered(spans, []int{0, 1, 2, 3}, 2, 55); got != 18+10+5 {
		t.Errorf("covered = %d, want 33", got)
	}
	if got := covered(spans, nil, 0, 100); got != 0 {
		t.Errorf("covered with no children = %d", got)
	}
}

func TestSummarizeParents(t *testing.T) {
	all := []span{
		{kind: spanStep, rank: 0, step: 3, start: 100, end: 200},
		{kind: spanNext, rank: 0, step: 3, start: 100, end: 150},
		{kind: spanRead, rank: 0, step: 3, start: 60, end: 140, path: "a"},
		{kind: spanGet, rank: 1, step: -1, start: 70, end: 90, path: "a"},
		{kind: spanGet, rank: 1, step: -1, start: 145, end: 146, path: "a"}, // no read in flight
		{kind: spanStep, rank: 0, step: 9, start: 0, end: 500},              // outside the window
	}
	ts := summarize(all, 0, 50, 300)
	want := []int{-1, 0, 0, 2, -1}
	if len(ts.spans) != len(want) {
		t.Fatalf("%d spans in window, want %d", len(ts.spans), len(want))
	}
	for i, p := range want {
		if ts.parent[i] != p {
			t.Errorf("span %d (%s): parent %d, want %d", i, spanNames[ts.spans[i].kind], ts.parent[i], p)
		}
	}
	// The step is covered by next [100,150) and the read up to 140.
	if ts.self[0] != 50 {
		t.Errorf("step self = %d, want 50", ts.self[0])
	}
	if ts.self[2] != 80-20 {
		t.Errorf("read self = %d, want 60", ts.self[2])
	}
}

// The end-to-end rates pool the fastest half of the slices: slow slices
// in the other half leave them unchanged.
func TestQuietest(t *testing.T) {
	mk := func(samples int64, secs float64) slice {
		return slice{dur: time.Duration(secs * float64(time.Second)), cpu: time.Second, samples: samples,
			steps: []time.Duration{time.Millisecond}}
	}
	sl := []slice{mk(100, 1), mk(300, 1), mk(50, 1), mk(200, 1), mk(250, 1), mk(10, 1), mk(280, 1), mk(90, 1)}
	q, n := quietest(sl)
	if n != 4 || q.samples != 300+280+250+200 || q.dur != 4*time.Second || q.cpu != 4*time.Second || len(q.steps) != 4 {
		t.Errorf("pooled %d slices, %d samples in %v (cpu %v), %d steps; want 4, 1030 in 4s (cpu 4s), 4",
			n, q.samples, q.dur, q.cpu, len(q.steps))
	}
	if q, n := quietest(sl[:3]); n != 1 || q.samples != 300 {
		t.Errorf("of 3 slices pooled %d with %d samples; want 1 with 300", n, q.samples)
	}
}
