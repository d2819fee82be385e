package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"fanstore"
	"fanstore/internal/prefetch"
)

// The benchmark traces the store only from outside: spans around its own
// calls into public functions, and around the calls the program makes
// into the Reader, Backend and Prefetcher/PlanStore it was handed.
type spanKind uint8

const (
	spanStep      spanKind = iota // one training step: next + crc + allgather
	spanNext                      // Pipeline.Next
	spanCRC                       // CRC of the batch's samples
	spanAllgather                 // the step's digest Allgather
	spanRead                      // prefetch.Reader.ReadFile (Node.ReadFile)
	spanGet                       // Backend.Get
	spanPrefetch                  // Prefetcher/PlanStore.Prefetch
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"step", "next", "crc", "allgather", "read", "backend.get", "prefetch.call"}

// spanLayer is the module each span's self time is charged to.
var spanLayer = [numSpanKinds]string{"train", "prefetch", "train", "mpi", "fanstore", "backend", "prefetch"}

// span is one timed call. Parents are resolved after the run: next, crc
// and allgather belong to the step with the same rank and step number; a
// read belongs to the step of the iteration whose batch holds the path;
// a backend.get belongs to the read of the same path that was in flight
// when the get started, on either rank.
type span struct {
	kind       spanKind
	rank       int8
	step       int32 // global step number of the owning iteration, -1: none
	start, end int64 // ns since the recorder was created
	path       string
}

// recorder keeps spans in a fixed in-memory buffer; spans past its
// capacity are counted and dropped. Safe for concurrent use. A nil
// recorder records nothing.
type recorder struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span // capacity fixed at creation
	dropped int64
	frozen  bool // after recorded: a pipeline goroutine that outlives its session adds nothing
}

func newRecorder(capacity int) *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (r *recorder) ns(t time.Time) int64 { return int64(t.Sub(r.t0)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	switch {
	case r.frozen:
	case len(r.spans) < cap(r.spans):
		r.spans = append(r.spans, s)
	default:
		r.dropped++
	}
	r.mu.Unlock()
}

// nearlyFull reports whether another epoch might overflow the buffer.
func (r *recorder) nearlyFull() bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans) > cap(r.spans)*3/4
}

// recorded stops recording and returns the kept spans.
func (r *recorder) recorded() (kept []span, dropped int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.frozen = true
	return r.spans, r.dropped
}

// step records one training step and its three children.
func (r *recorder) step(rank, step int, t0, t1, t2, t3 time.Time) {
	if r == nil {
		return
	}
	rk, st := int8(rank), int32(step)
	r.add(span{kind: spanStep, rank: rk, step: st, start: r.ns(t0), end: r.ns(t3)})
	r.add(span{kind: spanNext, rank: rk, step: st, start: r.ns(t0), end: r.ns(t1)})
	r.add(span{kind: spanCRC, rank: rk, step: st, start: r.ns(t1), end: r.ns(t2)})
	r.add(span{kind: spanAllgather, rank: rk, step: st, start: r.ns(t2), end: r.ns(t3)})
}

// reader wraps one epoch's prefetch.Reader. The sampler tells it which
// iteration, and so which step, each path belongs to.
func (r *recorder) reader(rank int, inner prefetch.Reader, sampler prefetch.Sampler, step0, iters int) *tracedReader {
	steps := make(map[string]int32)
	for it := 0; it < iters; it++ {
		paths, _ := sampler(it)
		for _, p := range paths {
			steps[p] = int32(step0 + it)
		}
	}
	return &tracedReader{inner: inner, rec: r, rank: int8(rank), steps: steps}
}

type tracedReader struct {
	inner prefetch.Reader
	rec   *recorder
	rank  int8
	steps map[string]int32 // read-only after construction
}

func (t *tracedReader) ReadFile(path string) ([]byte, error) {
	start := time.Now()
	data, err := t.inner.ReadFile(path)
	step, ok := t.steps[path]
	if !ok {
		step = -1
	}
	t.rec.add(span{kind: spanRead, rank: t.rank, step: step, start: t.rec.ns(start), end: t.rec.ns(time.Now()), path: path})
	return data, err
}

// tracedStore times the staging calls of the reactive window and of the
// epoch-plan scheduler.
type tracedStore struct {
	prefetch.PlanStore
	rec  *recorder
	rank int8
}

func (t *tracedStore) Prefetch(paths []string) int {
	start := time.Now()
	n := t.PlanStore.Prefetch(paths)
	t.rec.add(span{kind: spanPrefetch, rank: t.rank, step: -1, start: t.rec.ns(start), end: t.rec.ns(time.Now())})
	return n
}

// tracedBackend times Get on the node's RAM backend, for the node's own
// local opens and for the daemon serving its peers.
type tracedBackend struct {
	fanstore.Backend
	rec  *recorder
	rank int8
}

func (t *tracedBackend) Get(path string) (uint16, []byte, error) {
	start := time.Now()
	id, data, err := t.Backend.Get(path)
	t.rec.add(span{kind: spanGet, rank: t.rank, step: -1, start: t.rec.ns(start), end: t.rec.ns(time.Now()), path: path})
	return id, data, err
}

// traceSummary is what the traced window's spans say per kind and per
// layer.
type traceSummary struct {
	spans   []span
	parent  []int // index into spans, -1: root
	self    []int64
	count   [numSpanKinds]int
	total   [numSpanKinds]int64 // summed durations, ns
	durs    [numSpanKinds][]int64
	selfNs  map[string]int64 // per layer
	dropped int64
}

// summarize keeps the spans that lie inside [lo, hi], links each to its
// parent and computes self times: a span's duration minus the part of
// its interval that its children cover.
func summarize(all []span, dropped, lo, hi int64) *traceSummary {
	ts := &traceSummary{selfNs: map[string]int64{}, dropped: dropped}
	for _, s := range all {
		if s.start >= lo && s.end <= hi {
			ts.spans = append(ts.spans, s)
		}
	}
	type stepKey struct {
		rank int8
		step int32
	}
	steps := map[stepKey]int{}
	readsOf := map[string][]int{} // path -> read spans, by start
	for i, s := range ts.spans {
		switch s.kind {
		case spanStep:
			steps[stepKey{s.rank, s.step}] = i
		case spanRead:
			readsOf[s.path] = append(readsOf[s.path], i)
		}
	}
	for _, idx := range readsOf {
		sort.Slice(idx, func(a, b int) bool { return ts.spans[idx[a]].start < ts.spans[idx[b]].start })
	}
	ts.parent = make([]int, len(ts.spans))
	children := make([][]int, len(ts.spans))
	for i, s := range ts.spans {
		ts.parent[i] = -1
		switch s.kind {
		case spanNext, spanCRC, spanAllgather, spanRead:
			if p, ok := steps[stepKey{s.rank, s.step}]; ok && s.step >= 0 {
				ts.parent[i] = p
			}
		case spanGet:
			reads := readsOf[s.path]
			k := sort.Search(len(reads), func(k int) bool { return ts.spans[reads[k]].start > s.start })
			for k--; k >= 0; k-- {
				if r := ts.spans[reads[k]]; r.end >= s.start {
					ts.parent[i] = reads[k]
					break
				}
			}
		}
		if p := ts.parent[i]; p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	ts.self = make([]int64, len(ts.spans))
	for i, s := range ts.spans {
		d := s.end - s.start
		ts.count[s.kind]++
		ts.total[s.kind] += d
		ts.durs[s.kind] = append(ts.durs[s.kind], d)
		ts.self[i] = d - covered(ts.spans, children[i], s.start, s.end)
		ts.selfNs[spanLayer[s.kind]] += ts.self[i]
	}
	for k := range ts.durs {
		sort.Slice(ts.durs[k], func(a, b int) bool { return ts.durs[k][a] < ts.durs[k][b] })
	}
	return ts
}

// covered is the length of the union of the children's intervals
// clipped to [lo, hi].
func covered(spans []span, children []int, lo, hi int64) int64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		a, b := max(spans[c].start, lo), min(spans[c].end, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum, curA, curB int64
	open := false
	for _, v := range iv {
		switch {
		case !open:
			curA, curB, open = v[0], v[1], true
		case v[0] <= curB:
			curB = max(curB, v[1])
		default:
			sum += curB - curA
			curA, curB = v[0], v[1]
		}
	}
	if open {
		sum += curB - curA
	}
	return sum
}

// quantileNs is the nearest-rank q-quantile of sorted durations.
func quantileNs(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// writeChrome writes the window's spans as Chrome trace-event JSON
// (Perfetto, chrome://tracing): one process per rank, one thread per
// span kind, and each span's id, parent and self time in its args.
func (ts *traceSummary) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type args struct {
		ID     int     `json:"id"`
		Parent int     `json:"parent"`
		Step   int32   `json:"step"`
		SelfUs float64 `json:"self_us"`
		Path   string  `json:"path,omitempty"`
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int8    `json:"pid"`
		Tid  uint8   `json:"tid"`
		Args args    `json:"args"`
	}
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	enc := json.NewEncoder(w)
	for i, s := range ts.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		ev := event{Name: spanNames[s.kind], Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: s.rank, Tid: uint8(s.kind),
			Args: args{ID: i, Parent: ts.parent[i], Step: s.step, SelfUs: float64(ts.self[i]) / 1e3, Path: s.path}}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
