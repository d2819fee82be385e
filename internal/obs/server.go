package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"time"

	"fanstore/internal/metrics"
	"fanstore/internal/trace"
)

// Health is the /healthz payload: liveness plus the cluster-state
// facts a prober needs to distinguish "busy" from "stuck".
type Health struct {
	// OK is the overall verdict; /healthz answers 200 when true and
	// 503 otherwise.
	OK bool `json:"ok"`
	// State is a short machine-readable word: "ok", "degraded",
	// "rebalancing", ...
	State string `json:"state"`
	// Detail elaborates when not OK.
	Detail string `json:"detail,omitempty"`
	// MapVersion is the cluster-map version this rank routes under
	// (0 when the component has no cluster map).
	MapVersion uint64 `json:"map_version,omitempty"`
	// MapStale reports a known version disagreement (this rank has
	// observed a newer map it has not installed yet).
	MapStale bool `json:"map_stale,omitempty"`
	// RebalancePending counts partition transfers not yet committed.
	RebalancePending int `json:"rebalance_pending,omitempty"`
	// DegradedParts counts partitions currently served via EC
	// reconstruction instead of whole objects.
	DegradedParts int `json:"degraded_parts,omitempty"`
}

// ServerOptions wires a Server to one rank's observability state.
// Every field is optional; endpoints missing their source answer 404
// (or a minimal default for /healthz).
type ServerOptions struct {
	// Registry backs /metrics, /varz and (via Sampler) /series.
	Registry *metrics.Registry
	// Sampler backs /series. When nil and Registry is set, Serve
	// creates one with SamplerOptions defaults, starts it, and owns
	// its lifecycle (stopped on Close).
	Sampler *Sampler
	// SamplerOptions configures the auto-created sampler.
	SamplerOptions SamplerOptions
	// Tracer backs /trace.
	Tracer *trace.Tracer
	// Events backs /events.
	Events *EventLog
	// Health backs /healthz; when nil, /healthz answers plain 200 ok.
	Health func() Health
	// Status appends component-specific lines to /statusz.
	Status func(w *StatusWriter)
}

// Server is the embedded per-rank HTTP ops endpoint. It lives
// strictly off the data path: nothing in this package is constructed
// or spawned unless the operator asks for it (-ops-addr), and every
// handler reads through the same concurrency-safe snapshot/copy APIs
// the end-of-run exports use.
type Server struct {
	opts       ServerOptions
	ln         net.Listener
	srv        *http.Server
	started    time.Time
	ownSampler bool
}

// Serve binds addr (host:port; :0 picks a free port) and starts
// serving the ops endpoints in a background goroutine. Use
// Server.Addr for the bound address and Close to shut down.
func Serve(addr string, o ServerOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{opts: o, ln: ln, started: time.Now()}
	if o.Sampler == nil && o.Registry != nil {
		s.opts.Sampler = NewSampler(o.Registry, o.SamplerOptions)
		s.opts.Sampler.Start()
		s.ownSampler = true
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/varz", s.handleVarz)
	mux.HandleFunc("/series", s.handleSeries)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Sampler returns the sampler backing /series (the auto-created one
// when ServerOptions.Sampler was nil).
func (s *Server) Sampler() *Sampler { return s.opts.Sampler }

// Close stops the listener and, if Serve created the sampler, stops
// it too.
func (s *Server) Close() error {
	err := s.srv.Close()
	if s.ownSampler {
		s.opts.Sampler.Stop()
	}
	return err
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.opts.Registry == nil {
		http.Error(w, "no registry", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = WritePrometheus(w, s.opts.Registry.Snapshot())
}

func (s *Server) handleVarz(w http.ResponseWriter, r *http.Request) {
	if s.opts.Registry == nil {
		http.Error(w, "no registry", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.opts.Registry.Snapshot())
}

// seriesReply is the /series payload: per-second counter rates,
// latest gauge levels, and windowed histogram quantiles over the
// requested lookback, plus the raw windows when ?windows=1.
type seriesReply struct {
	IntervalMS int64                         `json:"interval_ms"`
	Retained   int                           `json:"retained"`
	LookbackMS int64                         `json:"lookback_ms"`
	Rates      map[string]float64            `json:"rates"`
	Gauges     map[string]metrics.GaugeValue `json:"gauges"`
	Quantiles  map[string]quantileReply      `json:"quantiles"`
	Windows    []Window                      `json:"windows,omitempty"`
}

type quantileReply struct {
	Count  int64 `json:"count"`
	MeanUS int64 `json:"mean_us"`
	P50US  int64 `json:"p50_us"`
	P99US  int64 `json:"p99_us"`
}

func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	sam := s.opts.Sampler
	if sam == nil {
		http.Error(w, "no sampler", http.StatusNotFound)
		return
	}
	lookback := 10 * time.Second
	if v := r.URL.Query().Get("window"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			http.Error(w, "bad window: "+err.Error(), http.StatusBadRequest)
			return
		}
		lookback = d
	}
	metric := r.URL.Query().Get("metric")
	reply := seriesReply{
		IntervalMS: sam.Interval().Milliseconds(),
		Retained:   sam.Retained(),
		LookbackMS: lookback.Milliseconds(),
		Rates:      sam.Rates(lookback),
		Gauges:     sam.Levels(),
		Quantiles:  map[string]quantileReply{},
	}
	for n, q := range sam.WindowQuantiles(lookback) {
		reply.Quantiles[n] = quantileReply{
			Count:  q.Count,
			MeanUS: q.Mean.Microseconds(),
			P50US:  q.P50.Microseconds(),
			P99US:  q.P99.Microseconds(),
		}
	}
	if metric != "" {
		// Narrow every map to the one requested instrument.
		rates := map[string]float64{}
		if v, ok := reply.Rates[metric]; ok {
			rates[metric] = v
		}
		reply.Rates = rates
		gauges := map[string]metrics.GaugeValue{}
		if v, ok := reply.Gauges[metric]; ok {
			gauges[metric] = v
		}
		reply.Gauges = gauges
		quants := map[string]quantileReply{}
		if v, ok := reply.Quantiles[metric]; ok {
			quants[metric] = v
		}
		reply.Quantiles = quants
	}
	if r.URL.Query().Get("windows") == "1" {
		reply.Windows = sam.Windows(lookback)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(reply)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := Health{OK: true, State: "ok"}
	if s.opts.Health != nil {
		h = s.opts.Health()
	}
	w.Header().Set("Content-Type", "application/json")
	if !h.OK {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(h)
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	sw := &StatusWriter{w: w}
	sw.KV("ops.addr", s.Addr())
	sw.KV("ops.uptime", time.Since(s.started).Round(time.Millisecond))
	sw.KV("goroutines", runtime.NumGoroutine())
	if s.opts.Events != nil {
		sw.KV("events.retained", s.opts.Events.Len())
		sw.KV("events.total", s.opts.Events.Seq())
	}
	if t := s.opts.Tracer; t != nil {
		sw.KV("trace.spans", t.Len())
		sw.KV("trace.dropped", t.Dropped())
	}
	if s.opts.Status != nil {
		s.opts.Status(sw)
	}
}

// StatusWriter renders /statusz's aligned key-value lines; component
// Status callbacks append through it.
type StatusWriter struct{ w http.ResponseWriter }

// KV writes one "key: value" line.
func (sw *StatusWriter) KV(key string, value any) {
	fmt.Fprintf(sw.w, "%-24s %v\n", key+":", value)
}

// Section writes a blank-line-separated section header.
func (sw *StatusWriter) Section(name string) {
	fmt.Fprintf(sw.w, "\n[%s]\n", name)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.opts.Tracer == nil {
		http.Error(w, "no tracer", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="fanstore-trace.json"`)
	_ = s.opts.Tracer.WriteChrome(w)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if s.opts.Events == nil {
		http.Error(w, "no event log", http.StatusNotFound)
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = s.opts.Events.WriteText(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = s.opts.Events.WriteJSON(w)
}

// OffsetAddr shifts a host:port address's port by off — the
// convention in-process multi-rank commands use to give rank r its
// own ops endpoint (base port + r).
func OffsetAddr(addr string, off int) (string, error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "", fmt.Errorf("obs: ops addr %q: %w", addr, err)
	}
	p, err := strconv.Atoi(port)
	if err != nil {
		return "", fmt.Errorf("obs: ops addr %q: %w", addr, err)
	}
	if p == 0 && off > 0 {
		// :0 means "any free port" for every rank; no offset needed.
		return addr, nil
	}
	return net.JoinHostPort(host, strconv.Itoa(p+off)), nil
}
