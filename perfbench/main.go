// Command perfbench is the repository's benchmark: it drives the real
// FanStore stack — launch, Mount, the prefetch Pipeline/Scheduler,
// Node.ReadFile, cache and singleflight, rpc, mpi, backend, decode pool
// and codec — with two ranks in one process, each running a closed
// training loop, and prints every metric by name with its unit.
//
//	go run . --workload em-decode --seed 1 --seconds 38 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// runs an untraced and a traced session and prints the per-layer
// metrics. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// setupLaunches is how many times a run launches the ranks and sets up;
// setup_s is the median, and the last launch goes on to the timed window.
const setupLaunches = 7

// spanCapacity bounds the traced session's in-memory span buffer.
const spanCapacity = 1 << 19

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: em-decode, imagenet-fetch or tokamak-hot")
	seed := flag.Int64("seed", 1, "seed of the generated dataset and of every epoch's permutation")
	seconds := flag.Float64("seconds", 38, "length of the timed window, in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced run")
	traceOut := flag.String("trace-out", "", "file for the traced run's spans (default .bench_build/perfbench-<workload>.trace.json)")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (em-decode, imagenet-fetch, tokamak-hot), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	out := *traceOut
	if *traced == 1 && out == "" {
		out = fmt.Sprintf(".bench_build/perfbench-%s.trace.json", w.name)
	}
	window := time.Duration(*seconds * float64(time.Second))

	fmt.Printf("# perfbench %s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *traced)
	ms, attempted, failed, err := bench(w, *seed, window, *traced == 1, out)
	for _, m := range ms {
		fmt.Printf("%-42s %16.6f %-13s %s\n", m.name, m.value, m.unit, m.base)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	res := jsonResult{Correct: err == nil && failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]jsonMetric{}}
	for _, m := range ms {
		res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", jerr)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct || res.Attempted == 0 {
		os.Exit(1)
	}
}

// bench runs one workload and returns its metrics with the run's
// counts of attempted and failed sample reads. Untraced, it launches
// setupLaunches times and measures the last launch's timed window.
// Traced, it writes the traced session's spans to traceOut.
func bench(w workload, seed int64, window time.Duration, traced bool, traceOut string) (ms []metric, attempted, failed int64, err error) {
	in, err := prepare(w, seed)
	if err != nil {
		return nil, 0, 0, err
	}
	counted := func(res *result) {
		a, f := res.counts()
		attempted += a
		failed += f
	}
	if !traced {
		var setups []time.Duration
		var res *result
		for i := 0; i < setupLaunches; i++ {
			s := &session{w: w, in: in, seed: seed}
			if i == setupLaunches-1 {
				s.window = window
			}
			res, err = s.run()
			counted(res)
			if err != nil {
				return nil, attempted, failed, err
			}
			setups = append(setups, res.setup)
		}
		return endToEnd(res, in, setups), attempted, failed, nil
	}

	tr, err := runTraced(w, in, seed, window)
	for _, res := range []*result{tr.base, tr.res} {
		if res != nil {
			counted(res)
		}
	}
	if err != nil {
		return nil, attempted, failed, err
	}
	ms = perLayer(tr.res, tr.spans, in, tr.base.samplesPerSecond())
	if traceOut != "" {
		if err := tr.spans.writeChrome(traceOut); err != nil {
			return ms, attempted, failed, fmt.Errorf("write trace: %w", err)
		}
		fmt.Printf("# spans: %s (%d spans, %d dropped)\n", traceOut, len(tr.spans.spans), tr.spans.dropped)
	}
	return ms, attempted, failed, nil
}

// tracedRun is an untraced session and a traced one of the same inputs.
type tracedRun struct {
	base, res *result
	spans     *traceSummary // the traced session's timed window
}

// runTraced runs an untraced and then a traced session, each for half
// the window. The untraced one is the baseline of the tracing overhead.
func runTraced(w workload, in *inputs, seed int64, window time.Duration) (tracedRun, error) {
	var tr tracedRun
	var err error
	if tr.base, err = (&session{w: w, in: in, seed: seed, window: window / 2}).run(); err != nil {
		return tr, err
	}
	rec := newRecorder(spanCapacity)
	if tr.res, err = (&session{w: w, in: in, seed: seed, window: window / 2, rec: rec}).run(); err != nil {
		return tr, err
	}
	lo, hi := tr.res.ranks[0].open, tr.res.ranks[0].close
	for _, r := range tr.res.ranks[1:] {
		lo, hi = minTime(lo, r.open), maxTime(hi, r.close)
	}
	kept, dropped := rec.recorded()
	tr.spans = summarize(kept, dropped, rec.ns(lo), rec.ns(hi))
	return tr, nil
}

func minTime(a, b time.Time) time.Time {
	if b.Before(a) {
		return b
	}
	return a
}

func maxTime(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}
