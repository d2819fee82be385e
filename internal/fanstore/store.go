// Package fanstore implements the paper's primary contribution: a
// distributed, compressed, POSIX-style object store for deep-learning
// training data (§IV, §V).
//
// Each node (MPI rank) runs a Node: it loads its assigned compressed
// partitions into node-local storage, exchanges metadata with all peers
// through the cluster coordinator so the full namespace is resolvable
// from RAM, and serves its partitions' file bytes to peers over the
// interconnect. File opens decompress into a reference-counted FIFO
// cache; reads are memory copies out of that cache. The write path
// implements the paper's multi-read / single-write model: an output file
// is written once, sealed on close, and its metadata forwarded to the
// owner rank.
//
// The data path is layered:
//
//	routing   — fetchRemote picks among the owner and its replicas,
//	            rotating for load spreading and failing over on error
//	transport — internal/rpc: framed request/response over mpi.Comm,
//	            answered concurrently by a bounded daemon worker pool
//	cache     — the ref-counted decompressed pool (cache.go)
//	backend   — Backend (backend.go): RAM or spill-to-disk storage of
//	            the compressed objects
//
// The paper's glibc function interception (LD_PRELOAD + trampoline, §V-C)
// is replaced by the equivalent user-space API surface on Node/File:
// Open/Read/Lseek/Write/Close/Stat/ReadDir — the same minimal POSIX
// interface of Listing 1, served entirely in user space.
package fanstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fanstore/internal/bufpool"
	"fanstore/internal/codec"
	"fanstore/internal/decomp"
	"fanstore/internal/ec"
	"fanstore/internal/member"
	"fanstore/internal/metrics"
	"fanstore/internal/mpi"
	"fanstore/internal/obs"
	"fanstore/internal/pack"
	"fanstore/internal/rpc"
	"fanstore/internal/trace"
)

// Message tags used by the FanStore daemon protocol.
const (
	tagFetch    = 1000 // fetch request: rpc frame carrying an op + body
	tagRing     = 1002 // ring replication of extra partitions
	tagCtrl     = 1003 // control plane: mount/join/rebalance/shutdown (elastic.go)
	tagRespBase = 1 << 20
)

// batchGetConcurrency bounds concurrent backend reads inside one opFetch
// batch, so a batch over a spill backend overlaps its disk reads instead
// of serializing them, without letting one huge batch monopolize the
// backend.
const batchGetConcurrency = 8

// Errors returned by the FS surface.
var (
	ErrNotExist   = errors.New("fanstore: file does not exist")
	ErrIsDir      = errors.New("fanstore: is a directory")
	ErrNotDir     = errors.New("fanstore: not a directory")
	ErrExist      = errors.New("fanstore: file already exists")
	ErrClosed     = errors.New("fanstore: file already closed")
	ErrReadOnly   = errors.New("fanstore: file not open for writing")
	ErrWriteOnly  = errors.New("fanstore: file not open for reading")
	ErrUnmounted  = errors.New("fanstore: node unmounted")
	ErrRemoteGone = errors.New("fanstore: remote fetch failed")
	// ErrVanished reports a fetch whose every candidate authoritatively
	// answered not-found on a current map: the object is genuinely gone
	// (deleted, or its record outlived its data), as opposed to
	// ErrRemoteGone's unreachable-or-stale routes. It matches ErrNotExist
	// and ErrRemoteGone under errors.Is for backward compatibility.
	ErrVanished = errors.New("fanstore: object vanished")
)

// vanishedError carries the vanished diagnosis while staying matchable
// as the not-found and remote-failure families callers already handle.
type vanishedError struct {
	path string
	err  error
}

func (e *vanishedError) Error() string {
	return fmt.Sprintf("fanstore: %q vanished: every candidate reports not-found on a current map (%v)", e.path, e.err)
}

func (e *vanishedError) Is(target error) bool {
	return target == ErrVanished || target == ErrNotExist || target == ErrRemoteGone
}

func (e *vanishedError) Unwrap() error { return e.err }

// Options configures a Node.
//
// Knob lifetimes: some fields are live-tunable after Mount — the online
// autotuner (internal/tune, the -tune flag) moves them through atomics
// while training runs — and the rest are mount-only. Live-tunable:
// DecodeWorkers (Node.SetDecodeWorkers), BatchItems (Node.SetBatchItems),
// the admission budget (Node.SetAdmissionBytes, read live by the plan
// scheduler), and the fidelity level (Node.SetFidelity). Mount-only:
// CacheBytes and CacheShards stay fixed for the node's lifetime —
// resizing or restriping the sharded cache would require a stop-the-
// world rehash of every resident entry, which no mid-epoch gain
// justifies — along with the backend, redundancy, and transport fields.
type Options struct {
	// CacheBytes bounds the decompressed data cache (default 256 MiB).
	// Mount-only: the cache never resizes live (see the knob-lifetimes
	// note above).
	CacheBytes int64
	// CachePolicy selects the replacement policy (default FIFO).
	CachePolicy Policy
	// CacheShards overrides the decompressed cache's stripe count,
	// rounded up to a power of two (0: automatic — sized to GOMAXPROCS,
	// reduced for small capacities). 1 reproduces the old single-lock
	// cache for comparison benchmarks. Mount-only: restriping live
	// would rehash every resident entry (see the knob-lifetimes note).
	CacheShards int
	// DecodeWorkers bounds the shared decode pool that demand opens and
	// the look-ahead prefetcher decompress through (default GOMAXPROCS).
	// 1 reproduces serial decode for comparison benchmarks.
	// Live-tunable: Node.SetDecodeWorkers resizes the pool without
	// dropping queued jobs.
	DecodeWorkers int
	// Replicas are extra partition blobs this node serves locally
	// without owning them (typically obtained via RingReplicate when the
	// node has spare local storage, §V-D). Their paths ride this node's
	// registration with the coordinator during Mount, and every member
	// attaches them to the owner records, so remote opens route to this
	// node as an alternative to the owner.
	Replicas [][]byte
	// SpillDir selects the local-disk backend: partition blobs are
	// written under this directory and compressed payloads are read back
	// on demand, freeing RAM for the training program (the paper's SSD
	// backend). Empty means the RAM backend. Ignored when Backend is set.
	SpillDir string
	// Backend overrides the storage backend entirely (nil: RAM, or the
	// spill backend when SpillDir is set). See NewRAMBackend and
	// NewSpillBackend.
	Backend Backend
	// FetchWorkers bounds the daemon's concurrent fetch handlers
	// (default: GOMAXPROCS, floored at 4). 1 reproduces the old serial
	// daemon for comparison benchmarks.
	FetchWorkers int
	// FetchTimeout bounds each remote fetch attempt (0: no deadline).
	FetchTimeout time.Duration
	// FetchRetries is how many extra attempts follow a timed-out or
	// errored fetch call to the same peer, before routing fails over to
	// the next replica (default 0). A per-object failure the peer
	// answers inside a successful call (say, its backend read failed)
	// fails over at once.
	FetchRetries int
	// FetchBackoff is the pause before the first same-peer retry,
	// doubling per attempt (default 0: immediate).
	FetchBackoff time.Duration
	// BatchItems bounds the objects carried by one batched fetch;
	// larger prefetch groups are split into plan-sized calls so a whole-
	// epoch window cannot build one monster frame (default
	// rpc.DefaultBatchItems). Live-tunable: Node.SetBatchItems takes
	// effect on the next prefetch split, mid-plan.
	BatchItems int
	// DisableCoalescing turns off the singleflight sharing of concurrent
	// fetch+decode work for the same path, reproducing the duplicate-
	// fetch behaviour for comparison benchmarks and ablations.
	DisableCoalescing bool
	// Redundancy selects the fault-tolerance mode: whole-partition
	// replication (default) or ec(k,m) erasure coding, which stripes
	// every partition into k data + m parity shards scattered across the
	// cluster at m/k overhead (see ParseRedundancy for the flag syntax).
	// Shard placement and the repair job route through the membership
	// coordinator every mount runs.
	Redundancy Redundancy
	// InitialMembers is how many ranks (0..InitialMembers-1) mount
	// collectively at start; the remaining slots are spare capacity for
	// JoinCluster. 0 means the whole world.
	InitialMembers int
	// NodeCapacity bounds each member's partition bytes for rebalance
	// planning (0: effectively unbounded — the aggregate dataset size).
	NodeCapacity int64
	// PullTimeout bounds how long the coordinator waits for a dispatched
	// partition pull to ack before treating the destination as failed and
	// re-planning the transfer (default 30s). A destination that dies
	// mid-pull never acks — without the watchdog the partition would park
	// in the registry forever.
	PullTimeout time.Duration
	// Metrics re-homes every data-path instrument (cache, rpc, store) in
	// a shared registry, so one snapshot captures the whole rank and the
	// cluster report can merge rank snapshots name-by-name. Nil means a
	// private registry: counters still work, Stats() stays truthful.
	Metrics *metrics.Registry
	// Tracer records per-operation spans (open, fetch, decompress, evict,
	// prefetch) into a fixed-size ring for Chrome trace export. Nil
	// disables tracing at zero cost on the hot path.
	Tracer *trace.Tracer
	// Events receives structured fault-path events (failover, map
	// change, rebalance lifecycle, degraded reads, EC repair, eviction
	// pressure) for the ops server's /events endpoint. Nil disables
	// emission at zero cost on the data path.
	Events *obs.EventLog
}

// RingReplicate passes each rank's partition blobs to its ring neighbor
// and returns the blobs received from the predecessor. The paper uses
// this to place additional partition copies without re-reading the shared
// filesystem: with roughly equal partition sizes the transfers are
// contention-free (§V-D). Send and receive are interleaved per partition
// — at most one blob is in flight each way — so memory stays bounded and
// a rendezvous-style transport cannot deadlock on large partition sets.
// Collective: every rank must call it.
func RingReplicate(comm *mpi.Comm, partitions [][]byte) ([][]byte, error) {
	next := comm.Neighbor()
	prev := (comm.Rank() + comm.Size() - 1) % comm.Size()

	// Header exchange: post the count send asynchronously so a
	// rendezvous transport can match it with the recv below.
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(partitions)))
	hdrErr := make(chan error, 1)
	go func() { hdrErr <- comm.Send(next, tagRing, cnt[:]) }()
	hdr, _, err := comm.Recv(prev, tagRing)
	if serr := <-hdrErr; serr != nil {
		return nil, fmt.Errorf("fanstore: ring replicate: %w", serr)
	}
	if err != nil {
		return nil, fmt.Errorf("fanstore: ring replicate: %w", err)
	}
	if len(hdr) != 4 {
		return nil, fmt.Errorf("fanstore: ring replicate: bad count frame")
	}
	nRecv := int(binary.LittleEndian.Uint32(hdr))

	rounds := len(partitions)
	if nRecv > rounds {
		rounds = nRecv
	}
	out := make([][]byte, 0, nRecv)
	for i := 0; i < rounds; i++ {
		var sendErr chan error
		if i < len(partitions) {
			sendErr = make(chan error, 1)
			blob := partitions[i]
			go func() { sendErr <- comm.Send(next, tagRing, blob) }()
		}
		if i < nRecv {
			blob, _, err := comm.Recv(prev, tagRing)
			if err != nil {
				if sendErr != nil {
					<-sendErr
				}
				return nil, fmt.Errorf("fanstore: ring replicate: %w", err)
			}
			out = append(out, blob)
		}
		if sendErr != nil {
			if err := <-sendErr; err != nil {
				return nil, fmt.Errorf("fanstore: ring replicate: %w", err)
			}
		}
	}
	return out, nil
}

// Stats counts data-path events for tests and benchmarks.
type Stats struct {
	LocalOpens      int64
	RemoteOpens     int64
	ZeroCopyOpens   int64 // uncompressed objects served straight from the blob
	Decompresses    int64
	BytesRead       int64
	RemoteBytes     int64
	Failovers       int64 // fetches re-routed to another replica after an error
	BatchedFetches  int64 // batched fetch calls issued by this rank's prefetcher
	PrefetchedOpens int64 // opens served by an entry Prefetch staged
	// FetchCoalesced counts opens that joined another producer's
	// in-flight fetch+decode instead of issuing their own (singleflight).
	FetchCoalesced int64
	// PrefetchSuppressed counts prefetch targets dropped because the
	// object was already staged or already being produced by a
	// concurrent open or overlapping prefetch.
	PrefetchSuppressed int64
	// FetchUpgrades counts in-place fidelity upgrades: a cached lower-
	// fidelity entry promoted by fetching only its missing refinement
	// extents instead of the whole object.
	FetchUpgrades int64
	// FetchBytesSaved totals the container bytes budgeted fetches and
	// upgrades did NOT move, relative to fetching each object whole at
	// full fidelity — the bandwidth-proportional read's dividend.
	FetchBytesSaved int64
	Cache           CacheStats
	Daemon          rpc.ServerStats // this rank's fetch daemon (peer-facing)
	RPC             rpc.ClientStats // this rank's outbound fetch calls
}

// Node is one rank's FanStore instance: metadata table, storage backend,
// decompressed cache, and the daemon servicing peers.
type Node struct {
	comm    *mpi.Comm
	cache   *Cache
	backend Backend
	decode  *decomp.Pool // shared decode workers (opens > prefetch)

	// Cluster identity: the membership handle, its live map view (fed by
	// the coordinator; the identity StaticMap until the world changes),
	// and the control plane for joins, leaves and shutdown (elastic.go).
	view   *member.View
	selfID member.NodeID
	mem    *member.Membership
	ectrl  *elasticCtrl
	ec     *ecState // erasure redundancy; nil on replicate mounts

	mu   sync.RWMutex
	meta map[string]*FileMeta
	dirs *dirIndex
	// writes holds sealed output files (uncompressed, write-once).
	writes map[string][]byte
	// parts tracks this node's owned partitions by global id for rebalance
	// transfers (opFetchPart) and shard pushes. It holds no blob: the
	// backend reads one back on demand (Backend.Blob), so a spill mount
	// keeps its partitions on disk.
	parts map[uint64]*nodePart

	// inflight deduplicates concurrent producers of the same not-yet-
	// cached file — demand opens and prefetch staging alike: one leader
	// fetches and decompresses, the rest wait and share the cache entry
	// (Fig. 4's refcount, extended through the fetch by flight.go).
	inflightMu sync.Mutex
	inflight   map[string]*flight
	noCoalesce bool
	// batchItems is the max objects per batched fetch call — atomic because
	// the autotuner retunes it mid-plan (SetBatchItems) while the
	// prefetch path reads it per split.
	batchItems atomic.Int64
	// admission is the live staged-bytes budget the plan scheduler reads
	// through AdmissionBytes each admission decision (0: cache headroom).
	admission atomic.Int64

	server *rpc.Server // answers peers' fetch requests (tagFetch)
	client *rpc.Client // issues fetch requests to peers

	routeSeq atomic.Int64 // rotates fetch routing across owner+replicas
	closed   atomic.Bool

	// fidelity is the node's current layer budget for demand opens and
	// default prefetches: 0 means full fidelity, k means "decode only the
	// first k layers of layered objects". A fidelity schedule (epochs 0–3
	// at the base layer, say) flips it between epochs via SetFidelity.
	fidelity atomic.Uint32

	// Registry-backed data-path instruments ("fanstore.*"); Stats() and
	// Metrics() are thin views over them.
	reg    *metrics.Registry
	tracer *trace.Tracer
	events *obs.EventLog // nil unless the ops plane is enabled

	// statusExtra holds extra /statusz section renderers registered via
	// AddStatus (the -tune controller's section rides here).
	statusMu    sync.Mutex
	statusExtra []func(*obs.StatusWriter)

	localOpens, remoteOpens, zeroCopyOpens *metrics.Counter
	decompresses, failovers                *metrics.Counter
	bytesRead, remoteBytes                 *metrics.Counter
	batchedFetches                         *metrics.Counter
	fetchCoalesced, prefetchSuppressed     *metrics.Counter
	mapRefreshes                           *metrics.Counter
	fetchUpgrades, fetchBytesSaved         *metrics.Counter
	mapVersion                             *metrics.Gauge

	openHist       *metrics.Histogram // whole open(): lookup + fetch + decompress
	fetchHist      *metrics.Histogram // remote fetch round trips only
	decompressHist *metrics.Histogram // codec time per decompressed object
	readHist       *metrics.Histogram // whole-file reads (ReadFile)
	fidelityHist   *metrics.Histogram // layers decoded per layered decode (µs = level)
}

// instrument registers the node's counters and histograms in its
// registry. Mount calls it before any traffic.
func (n *Node) instrument() {
	n.localOpens = n.reg.Counter("fanstore.opens.local")
	n.remoteOpens = n.reg.Counter("fanstore.opens.remote")
	n.zeroCopyOpens = n.reg.Counter("fanstore.opens.zerocopy")
	n.decompresses = n.reg.Counter("fanstore.decompresses")
	n.failovers = n.reg.Counter("fanstore.failovers")
	n.bytesRead = n.reg.Counter("fanstore.bytes.read")
	n.remoteBytes = n.reg.Counter("fanstore.bytes.remote")
	n.batchedFetches = n.reg.Counter("fanstore.fetch.batched")
	n.fetchCoalesced = n.reg.Counter("fanstore.fetch.coalesced")
	n.prefetchSuppressed = n.reg.Counter("fanstore.prefetch.suppressed")
	n.mapRefreshes = n.reg.Counter("fanstore.map.refreshes")
	n.fetchUpgrades = n.reg.Counter("fanstore.fetch.upgrades")
	n.fetchBytesSaved = n.reg.Counter("fanstore.fetch.bytes.saved")
	n.mapVersion = n.reg.Gauge("member.map.version")
	n.openHist = n.reg.Histogram("fanstore.open.latency")
	n.fetchHist = n.reg.Histogram("fanstore.fetch.latency")
	n.decompressHist = n.reg.Histogram("fanstore.decompress.latency")
	n.readHist = n.reg.Histogram("fanstore.read.latency")
	// The fidelity histogram abuses the duration scale as a unitless one:
	// each layered decode observes its decoded layer count as that many
	// microseconds, so Snapshot.Sum/Count recovers the mean level.
	n.fidelityHist = n.reg.Histogram("fanstore.fidelity.level")
}

// Metrics exposes the node's latency histograms: open() end-to-end, the
// remote-fetch round trip, and the daemon-side in-service time. The
// bimodal open() distribution (local decompress vs. remote fetch) is the
// signature of a healthy FanStore deployment.
type Metrics struct {
	Open    metrics.Snapshot
	Fetch   metrics.Snapshot
	Service metrics.Snapshot // daemon worker time per answered fetch
}

// Metrics snapshots the node's latency histograms.
func (n *Node) Metrics() Metrics {
	return Metrics{
		Open:    n.openHist.Snapshot(),
		Fetch:   n.fetchHist.Snapshot(),
		Service: n.server.ServiceTime(),
	}
}

// newNode builds a Node's data-path machinery — cache, backend, decode
// pool, rpc server/client, instruments, control plane — over an
// established membership, without any traffic. Mount and JoinCluster
// share it; only the metadata exchange differs.
func newNode(comm *mpi.Comm, mem *member.Membership, opts Options) (*Node, error) {
	if opts.CacheBytes <= 0 {
		opts.CacheBytes = 256 << 20
	}
	backend := opts.Backend
	if backend == nil {
		if opts.SpillDir != "" {
			var err error
			backend, err = NewSpillBackend(opts.SpillDir, fmt.Sprintf("rank%04d", comm.Rank()))
			if err != nil {
				return nil, err
			}
		} else {
			backend = NewRAMBackend()
		}
	}
	reg := opts.Metrics
	if reg == nil {
		// A private registry keeps Stats()/Metrics() truthful even when
		// the caller did not ask for unified observability.
		reg = metrics.NewRegistry()
	}
	batchItems := opts.BatchItems
	if batchItems <= 0 {
		batchItems = rpc.DefaultBatchItems
	}
	n := &Node{
		comm:       comm,
		cache:      NewCacheShards(opts.CacheBytes, opts.CachePolicy, opts.CacheShards),
		backend:    backend,
		decode:     decomp.New(opts.DecodeWorkers, reg),
		view:       mem.View(),
		selfID:     mem.ID(),
		mem:        mem,
		meta:       make(map[string]*FileMeta),
		dirs:       newDirIndex(),
		writes:     make(map[string][]byte),
		parts:      make(map[uint64]*nodePart),
		inflight:   make(map[string]*flight),
		noCoalesce: opts.DisableCoalescing,
		reg:        reg,
		tracer:     opts.Tracer,
		events:     opts.Events,
	}
	n.batchItems.Store(int64(batchItems))
	if opts.Redundancy.Mode == RedundancyEC {
		code, err := ec.New(opts.Redundancy.K, opts.Redundancy.M)
		if err != nil {
			return nil, err
		}
		n.ec = newECState(code, reg)
	}
	n.instrument()
	n.mapVersion.Set(int64(n.view.Version()))
	n.cache.instrument(reg, opts.Tracer)
	n.cache.setEvents(opts.Events)
	n.server = rpc.NewServer(comm, tagFetch, n.handleFetch, rpc.ServerOptions{
		Workers: opts.FetchWorkers,
		Metrics: reg,
	})
	n.client = rpc.NewClient(comm, tagFetch, tagRespBase, rpc.ClientOptions{
		Timeout: opts.FetchTimeout,
		Retries: opts.FetchRetries,
		Backoff: opts.FetchBackoff,
		Metrics: reg,
	})
	n.ectrl = newElasticCtrl(n, opts)
	return n, nil
}

// loadPartition parses one partition blob into the backend and returns
// its metadata records, stamped with this node's ID, the current map
// version and gid. A nonzero gid makes the partition this node's to hand
// off in a rebalance (n.parts); gid 0 loads a partition the cluster never
// moves (the broadcast partition, replicas of another node's).
func (n *Node) loadPartition(gid uint64, blob []byte) ([]FileMeta, error) {
	p, err := pack.Parse(blob)
	if err != nil {
		return nil, err
	}
	if err := n.backend.AddPartition(blob, p); err != nil {
		return nil, err
	}
	metas := make([]FileMeta, 0, len(p.Entries))
	paths := make([]string, 0, len(p.Entries))
	for i := range p.Entries {
		e := &p.Entries[i]
		fm := FileMeta{
			Path:         cleanPath(e.Path),
			Size:         e.Stat.Size,
			Mode:         e.Stat.Mode,
			MTime:        e.Stat.MTime,
			CRC32:        e.Stat.CRC32,
			CompressorID: e.CompressorID,
			Owner:        int32(n.selfID),
			MapVersion:   n.view.Version(),
			PartGID:      gid,
		}
		// Layered entries carry their cumulative extent table in the
		// metadata record, so every rank can turn a fidelity budget into
		// a byte range without touching the container first.
		if ix, ok, err := e.LayerIndex(); err == nil && ok {
			lp := make([]uint32, ix.Layers())
			for k := range lp {
				lp[k] = uint32(ix.PrefixSize(k + 1))
			}
			fm.LayerPrefix = lp
		}
		metas = append(metas, fm)
		paths = append(paths, fm.Path)
	}
	// An empty partition has nothing to serve, move or protect.
	if gid != 0 && len(paths) > 0 {
		n.mu.Lock()
		n.parts[gid] = &nodePart{gid: gid, paths: paths}
		n.mu.Unlock()
	}
	return metas, nil
}

// nodePart is one partition this node owns and can hand off to a new
// owner during a rebalance. Its blob is read back from the backend by
// any of its paths (Backend.Blob).
type nodePart struct {
	gid   uint64   // cluster-wide partition id
	paths []string // clean paths of the partition's entries
}

// dropPartition forgets a handed-off partition: the old owner's half of
// a rebalance commit. The decompressed cache is untouched — entries for
// the moved paths still hold correct bytes; only the compressed source
// moves.
func (n *Node) dropPartition(gid uint64) {
	n.mu.Lock()
	p := n.parts[gid]
	delete(n.parts, gid)
	n.mu.Unlock()
	if p != nil {
		n.backend.Remove(p.paths)
	}
}

// addMeta inserts records into the namespace under one lock (last
// writer wins per path).
func (n *Node) addMeta(ms ...FileMeta) {
	n.mu.Lock()
	for _, m := range ms {
		m.Path = cleanPath(m.Path)
		n.meta[m.Path] = &m
		n.dirs.add(m.Path, m.Size)
	}
	n.mu.Unlock()
}

// noteReplica records that node id also serves path's compressed object.
func (n *Node) noteReplica(path string, id member.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	m, ok := n.meta[cleanPath(path)]
	if !ok || m.Owner == int32(id) {
		return // replica of an unannounced partition, or the owner itself
	}
	for _, r := range m.Replicas {
		if r == int32(id) {
			return
		}
	}
	m.Replicas = append(m.Replicas, int32(id))
}

// handleFetch answers one peer request on a daemon worker, dispatching
// on the op byte: opFetch for object data, or one of the five control
// ops (rebalance pulls, metadata sync, shard gather and placement, and
// write-metadata forwards).
func (n *Node) handleFetch(_ int, payload []byte) ([]byte, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("fanstore: empty fetch frame")
	}
	body := payload[1:]
	switch payload[0] {
	case opFetch:
		return n.serveFetch(body)
	case opFetchPart:
		return n.handleFetchPart(body)
	case opMetaSync:
		return n.handleMetaSync(body)
	case opFetchShard:
		return n.handleFetchShard(body)
	case opStoreShard:
		return n.handleStoreShard(body)
	case opWriteMeta:
		return n.handleWriteMeta(body)
	default:
		return nil, fmt.Errorf("fanstore: unknown fetch op %d", payload[0])
	}
}

// handleFetchPart streams one loaded partition blob to a new owner —
// the rebalance transfer. It runs on the ordinary fetch worker pool, so
// handoffs share bandwidth with reads instead of stopping them.
func (n *Node) handleFetchPart(body []byte) ([]byte, error) {
	if len(body) != 8 {
		return nil, fmt.Errorf("fanstore: bad partition fetch frame")
	}
	gid := binary.LittleEndian.Uint64(body)
	n.mu.RLock()
	p := n.parts[gid]
	n.mu.RUnlock()
	if p == nil {
		return nil, fmt.Errorf("%w: partition %d", rpc.ErrNotFound, gid)
	}
	blob, err := n.backend.Blob(p.paths[0])
	if err != nil {
		return nil, err
	}
	return append(rpc.NewReply(len(blob)), blob...), nil
}

// handleMetaSync answers a single-path metadata refresh from this
// node's table (callers direct it at the coordinator, whose table is
// authoritative after a commit). Unknown paths return an empty list,
// not an error: the caller's next fetch will surface the real miss.
func (n *Node) handleMetaSync(body []byte) ([]byte, error) {
	cp := cleanPath(string(body))
	n.mu.RLock()
	m, ok := n.meta[cp]
	var rec FileMeta
	if ok {
		rec = *m
	}
	n.mu.RUnlock()
	var recs []FileMeta
	if ok {
		recs = []FileMeta{rec}
	}
	enc := encodeMetas(recs)
	return append(rpc.NewReply(len(enc)), enc...), nil
}

// servedItem is one answered window of an opFetch request: an OK
// window's compressor and bytes, or a failure status and its text.
type servedItem struct {
	status byte
	id     uint16
	data   []byte
}

// serveFetch answers an opFetch request. Each item's object is looked up
// — a one-item request inline, a batch with bounded concurrency so a cold
// batch over the spill backend overlaps its disk reads — and the results
// are appended straight into one pooled reply frame in request order,
// each OK payload shaped [u16 compressorID][window bytes]. A partial miss
// never fails the whole batch.
func (n *Node) serveFetch(body []byte) ([]byte, error) {
	callerVer, items, err := decodeFetchRequest(body)
	if err != nil {
		return nil, err
	}
	served := make([]servedItem, len(items))
	if len(items) == 1 {
		served[0] = n.serveItem(items[0], callerVer)
	} else {
		sem := make(chan struct{}, batchGetConcurrency)
		var wg sync.WaitGroup
		for i := range items {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				served[i] = n.serveItem(items[i], callerVer)
			}(i)
		}
		wg.Wait()
	}
	size := 4
	for _, it := range served {
		size += rpc.ItemHeaderLen + it.payloadLen()
	}
	out := rpc.AppendItemCount(rpc.NewReply(size), len(served))
	for _, it := range served {
		n.server.CountItem(it.status)
		out = rpc.AppendItemHeader(out, it.status, it.payloadLen())
		if it.status == rpc.ItemOK {
			out = binary.LittleEndian.AppendUint16(out, it.id)
		}
		out = append(out, it.data...)
	}
	return out, nil
}

// payloadLen is the item's framed payload size: an OK window carries a
// u16 compressor header ahead of its bytes.
func (it servedItem) payloadLen() int {
	if it.status == rpc.ItemOK {
		return 2 + len(it.data)
	}
	return len(it.data)
}

// serveItem looks up one requested window. A miss answers
// rpc.ItemNotFound — or rpc.ItemStale when the caller's map version
// differs from this node's: "I don't have it, and one of us is routing on
// an old map", so the caller refreshes instead of burning failovers.
// While both sides agree on the map, or the object is simply present,
// the version plays no part.
func (n *Node) serveItem(it fetchItem, callerVer uint64) servedItem {
	id, data, err := n.lookupObject(it.path)
	if err == nil {
		data, err = cutWindow(id, data, it.from, it.to)
	}
	switch {
	case err == nil:
		return servedItem{status: rpc.ItemOK, id: id, data: data}
	case !errors.Is(err, ErrNotExist):
		return servedItem{status: rpc.ItemError, data: []byte(err.Error())}
	}
	if have := n.view.Version(); have != callerVer {
		return servedItem{status: rpc.ItemStale, data: fmt.Appendf(nil, "have v%d, caller routed on v%d", have, callerVer)}
	}
	return servedItem{status: rpc.ItemNotFound}
}

// lookupObject returns one object's compressor and compressed bytes:
// a written output file (stored uncompressed, framed as "store") or the
// backend's copy. Misses wrap ErrNotExist.
func (n *Node) lookupObject(path string) (uint16, []byte, error) {
	n.mu.RLock()
	wdata, written := n.writes[path]
	n.mu.RUnlock()
	if written && wdata != nil {
		comp, err := codec.MustGet("store").Codec.Compress(nil, wdata)
		return codec.StoreID, comp, err
	}
	return n.backend.Get(path)
}

// fetchCandidates lists the node IDs that can serve m's compressed
// object, owner first, excluding this node. IDs, not ranks: the caller
// resolves each through the cluster-map view at dial time, so routing
// survives rank reassignment between a meta read and the fetch.
func (n *Node) fetchCandidates(m *FileMeta) []member.NodeID {
	cands := make([]member.NodeID, 0, 1+len(m.Replicas))
	self := int32(n.selfID)
	if m.Owner != self {
		cands = append(cands, member.NodeID(m.Owner))
	}
	for _, r := range m.Replicas {
		if r != self && r != m.Owner {
			cands = append(cands, member.NodeID(r))
		}
	}
	return cands
}

// refreshRoutes is the stale-map recovery path: sync the membership
// view from the coordinator, pull the path's current metadata record,
// and return the refreshed record for re-resolution (nil when the sync
// fails).
func (n *Node) refreshRoutes(path string) *FileMeta {
	n.mapRefreshes.Inc()
	if _, err := n.mem.Sync(); err != nil {
		return nil
	}
	n.mapVersion.Set(int64(n.view.Version()))
	// The coordinator's table is authoritative after a commit; pull the
	// one record this fetch needs.
	coord := n.mem.CoordRank()
	if coord != n.comm.Rank() {
		req := make([]byte, 1, 1+len(path))
		req[0] = opMetaSync
		if resp, frame, err := n.client.Call(coord, append(req, path...)); err == nil {
			if metas, err := decodeMetas(resp); err == nil && len(metas) == 1 {
				n.addMeta(metas[0])
			}
			bufpool.Put(frame)
		}
	}
	n.mu.RLock()
	m := n.meta[cleanPath(path)]
	n.mu.RUnlock()
	return m
}

// fetchCall issues one opFetch request to dst — the only place a data
// request is built — and returns one decoded item per requested window,
// in request order, with the reply frame the item payloads alias. The
// caller owns the frame and recycles it (bufpool.Put) once it is done
// with every payload. An OK item too short to carry its compressor
// header comes back as an ItemError, so callers only branch on status.
func (n *Node) fetchCall(dst int, items []fetchItem) ([]rpc.Item, []byte, error) {
	req := appendFetchRequest(bufpool.Get(fetchRequestLen(items)), n.view.Version(), items)
	resp, frame, err := n.client.Call(dst, req)
	bufpool.Put(req) // Call copied it into each attempt's send frame
	if err != nil {
		return nil, nil, err
	}
	got, err := rpc.DecodeItems(resp)
	if err == nil && len(got) != len(items) {
		err = fmt.Errorf("answered %d items for %d windows", len(got), len(items))
	}
	if err != nil {
		bufpool.Put(frame)
		return nil, nil, fmt.Errorf("rank %d: %w", dst, err)
	}
	for i := range got {
		if got[i].Status == rpc.ItemOK && len(got[i].Payload) < 2 {
			got[i] = rpc.Item{Status: rpc.ItemError, Payload: []byte("malformed object frame")}
		}
	}
	return got, frame, nil
}

// fetchRemote retrieves the compressed object for m over the interconnect
// (§IV-C2) at layer budget level: 0 or FidelityFull fetches the whole
// object, anything else the container prefix a fidelity-level reader
// needs (see fetchLayers).
func (n *Node) fetchRemote(m *FileMeta, level uint8) (fetched, trace.Outcome, error) {
	return n.fetchLayers(m, 0, normalizeFidelity(level))
}

// fetched is one retrieved object window: its compressor and bytes, and
// the rpc reply frame the bytes alias. frame is nil when the bytes are
// not a frame (an erasure-coded degraded read); release recycles it.
type fetched struct {
	id    uint16
	data  []byte
	frame []byte
}

// release recycles the reply frame once nothing references data.
func (f fetched) release() { bufpool.Put(f.frame) }

// fetchLayers retrieves the layer window [from, to) of m's compressed
// object and returns it with the routing outcome. The caller releases
// the result once it has decoded the bytes. Routing is
// replica-aware: requests rotate across the owner and its replicas to
// spread load, and an errored peer triggers failover to the next
// candidate, so a lost rank degrades throughput instead of killing opens.
// The outcome distinguishes a first-candidate success (remote-fetch) from
// one that needed failover, so the open span carries routing health.
//
// Candidates resolve through the cluster-map view, and a
// version-mismatch answer (rpc.ItemStale, or an unresolvable node
// ID) triggers a map-and-metadata refresh followed by re-resolution
// against the refreshed record — not a failover: the object exists, the
// route was just planned on an old map.
//
// Bytes a window kept off the wire, relative to the whole full-fidelity
// object, are credited to fetch.bytes.saved. Only whole-object windows
// (from == 0) fall back to an erasure-coded degraded read.
func (n *Node) fetchLayers(m *FileMeta, from, to uint8) (fetched, trace.Outcome, error) {
	start := time.Now()
	tstart := n.tracer.Begin()
	outcome := trace.OutcomeRemoteFetch
	path := m.Path
	defer func() {
		n.fetchHist.Observe(time.Since(start))
		n.tracer.End(trace.OpFetch, path, outcome, tstart)
	}()
	// Two refreshes bound the recovery loop: one covers the common
	// "commit landed between my meta read and my fetch" race, the second
	// a commit racing the refresh itself. The cap is what keeps a
	// genuinely deleted object — whose every fetch answers not-found and
	// whose every refresh returns the same doomed record — from spinning
	// the refresh loop forever; after it trips, the all-misses pass is
	// diagnosed as ErrVanished below rather than retried.
	const maxRefreshes = 2
	refreshes := 0
	var lastErr error
	aborted := false
	allNotFound := false
	for {
		cands := n.fetchCandidates(m)
		if len(cands) == 0 {
			lastErr = fmt.Errorf("no remote node serves %q", path)
			break
		}
		first := int(n.routeSeq.Add(1)) % len(cands)
		stale := false
		attempts, misses := 0, 0
		for i := 0; i < len(cands); i++ {
			id := cands[(first+i)%len(cands)]
			dst, err := n.view.Resolve(id)
			if err != nil {
				// The meta names a node this map doesn't know (or knows
				// dead): the record and the map disagree — refresh.
				lastErr = err
				stale = true
				continue
			}
			attempts++
			got, frame, err := n.fetchCall(dst, []fetchItem{{path: path, from: from, to: to}})
			if err == nil && got[0].Status == rpc.ItemOK {
				p := got[0].Payload
				n.remoteBytes.Add(int64(len(p)))
				n.creditBytesSaved(m, int64(len(p)-2))
				return fetched{id: binary.LittleEndian.Uint16(p), data: p[2:], frame: frame}, outcome, nil
			}
			if err == nil {
				err = fmt.Errorf("rank %d: %w", dst, got[0].Err())
				bufpool.Put(frame)
			}
			lastErr = err
			if errors.Is(err, mpi.ErrAborted) {
				aborted = true
				break // the world is gone; no candidate can answer
			}
			if errors.Is(err, rpc.ErrStale) {
				stale = true
				continue // a refresh, not a failover, fixes this
			}
			if errors.Is(err, rpc.ErrNotFound) {
				misses++
				// Even a version-matched miss can be a commit race: map and
				// meta land in separate steps, so this node may have routed
				// to the old owner under the new version after the owner
				// already dropped the partition. Suspect a stale route
				// first; only when the refresh cap trips with every
				// candidate still answering not-found is the object
				// declared vanished.
				stale = true
				continue
			}
			if i+1 < len(cands) {
				n.failovers.Inc()
				outcome = trace.OutcomeFailover
				if n.events.Enabled() {
					n.events.Emitf(obs.EvFailover, obs.SevWarn,
						"fetch %q: node %d errored (%v), failing over", path, id, err)
				}
			}
		}
		allNotFound = attempts > 0 && misses == attempts
		if aborted {
			break
		}
		if stale && refreshes < maxRefreshes {
			refreshes++
			if fresh := n.refreshRoutes(path); fresh != nil {
				m = fresh
				continue
			}
		}
		break
	}
	// Every whole-object route is exhausted. On an erasure-coded mount
	// the partition is still recoverable while at least k shards survive:
	// reconstruct it and serve the read degraded. This is the path that
	// keeps reads flowing between a rank dying and the repair commit.
	if n.ec != nil && m.PartGID != 0 && !aborted && from == 0 {
		if id, comp, err := n.ecDegradedObject(m); err == nil {
			n.remoteBytes.Add(int64(len(comp)))
			outcome = trace.OutcomeDegraded
			return fetched{id: id, data: comp}, outcome, nil
		} else if lastErr == nil {
			lastErr = err
		}
	}
	outcome = trace.OutcomeError
	if allNotFound && refreshes > 0 {
		// The routes were just refreshed and every candidate
		// authoritatively answered not-found: the object is gone, not
		// mis-routed — callers can distinguish this from transport death.
		if n.events.Enabled() {
			n.events.Emitf(obs.EvFailover, obs.SevError, "object %q vanished: every candidate reports not-found", path)
		}
		return fetched{}, outcome, &vanishedError{path: path, err: lastErr}
	}
	return fetched{}, outcome, fmt.Errorf("%w: %v", ErrRemoteGone, lastErr)
}

// creditBytesSaved accounts a layer window's dividend — a budgeted
// prefix or an upgrade's refinement: the container bytes a whole-object
// full-fidelity fetch of m would have moved, minus what actually crossed
// the wire. No-op for unlayered objects and unclipped responses.
func (n *Node) creditBytesSaved(m *FileMeta, fetched int64) {
	if L := m.Layers(); L > 0 {
		if saved := int64(m.LayerPrefix[L-1]) - fetched; saved > 0 {
			n.fetchBytesSaved.Add(saved)
		}
	}
}

// prefetchTarget is one not-yet-staged remote object being walked
// through its candidate ranks by Prefetch. The target's flight (the
// prefetch is its leader) is finished nil as soon as the object is
// staged, or with errFlightAbandoned when every replica failed — so a
// demand open racing the window either shares the staged entry or
// falls back to its own fetch, never an error from a best-effort path.
type prefetchTarget struct {
	m      *FileMeta
	flight *flight
	cands  []member.NodeID // candidate node IDs in try order
	next   int             // index into cands of the node to ask next
}

// Prefetch stages an upcoming access window (the sampler's next
// iterations) into the decompressed cache ahead of the consumer: paths
// that are neither local, cached, nor already being opened are grouped
// by replica owner, each group is fetched with one batched round trip
// — issued concurrently across owners — and the decompressed results
// are inserted unpinned (InsertIdle), so prefetched-but-unopened files
// stay evictable and a canceled epoch cannot wedge the pool. It is
// best-effort: a partial miss or peer failure falls over to the next
// replica and finally to on-demand fetching at Open; Prefetch never
// fails the training loop. Returns the number of objects staged.
// Prefetch stages at the node's current fidelity level (SetFidelity).
func (n *Node) Prefetch(paths []string) int {
	return n.PrefetchFidelity(paths, n.FidelityLevel())
}

// PrefetchFidelity is Prefetch under an explicit layer budget: layered
// objects are fetched as level-layer container prefixes (one budgeted
// batch round trip per owner) and staged at that fidelity. A cached entry
// already at or above the budget suppresses the target; prefetch never
// upgrades a resident entry — upgrades belong to the demand path, which
// knows a reader actually wants the extra layers.
func (n *Node) PrefetchFidelity(paths []string, level uint8) int {
	if n.closed.Load() || len(paths) == 0 {
		return 0
	}
	level = normalizeFidelity(level)
	tstart := n.tracer.Begin()
	defer n.tracer.End(trace.OpPrefetch, "", trace.OutcomeNone, tstart)
	// Resolve the window down to remote, uncached, not-in-flight paths.
	targets := make([]*prefetchTarget, 0, len(paths))
	seen := make(map[string]bool, len(paths))
	for _, p := range paths {
		cp := cleanPath(p)
		if seen[cp] {
			continue
		}
		seen[cp] = true
		n.mu.RLock()
		m, ok := n.meta[cp]
		_, written := n.writes[cp]
		n.mu.RUnlock()
		if !ok || written || n.backend.Contains(cp) {
			continue
		}
		want := metaFidelity(m, level)
		if n.cache.ContainsFidelity(cp, want) {
			n.prefetchSuppressed.Inc() // already staged or resident at this fidelity
			continue
		}
		if n.cache.Contains(cp) {
			// Resident below the budget: leave it — a demand open at the
			// higher level will upgrade in place, which is cheaper than a
			// speculative re-stage.
			n.prefetchSuppressed.Inc()
			continue
		}
		cands := n.fetchCandidates(m)
		if len(cands) == 0 {
			continue
		}
		f, leader := n.beginFlightFid(cp, want)
		if !leader {
			// A demand open or an overlapping prefetch is already
			// producing it; that flight's result lands in the cache.
			n.prefetchSuppressed.Inc()
			continue
		}
		// Rotate the starting candidate like fetchRemote does, so
		// prefetch load also spreads across the owner and its replicas.
		rot := int(n.routeSeq.Add(1)) % len(cands)
		ordered := make([]member.NodeID, 0, len(cands))
		for i := range cands {
			ordered = append(ordered, cands[(rot+i)%len(cands)])
		}
		targets = append(targets, &prefetchTarget{m: m, flight: f, cands: ordered})
	}
	// Round-based failover: each round groups the remaining targets by
	// their next candidate and fetches the groups concurrently; targets
	// a peer could not serve move to their next replica.
	staged := 0
	for len(targets) > 0 {
		groups := make(map[member.NodeID][]*prefetchTarget)
		for _, t := range targets {
			groups[t.cands[t.next]] = append(groups[t.cands[t.next]], t)
		}
		var mu sync.Mutex
		var retry []*prefetchTarget
		var wg sync.WaitGroup
		for id, group := range groups {
			// Resolve the group's node once per round. An unresolvable ID
			// (it left, or the map is behind) just moves the group to its
			// next replica — prefetch is best-effort; the demand path owns
			// stale-map recovery.
			dst, err := n.view.Resolve(id)
			if err != nil {
				mu.Lock()
				retry = append(retry, group...)
				mu.Unlock()
				continue
			}
			wg.Add(1)
			go func(dst int, group []*prefetchTarget) {
				defer wg.Done()
				ok, failed := n.prefetchFrom(dst, group, level)
				mu.Lock()
				staged += ok
				retry = append(retry, failed...)
				mu.Unlock()
			}(dst, group)
		}
		wg.Wait()
		targets = targets[:0]
		for _, t := range retry {
			if t.next++; t.next < len(t.cands) {
				targets = append(targets, t)
			} else {
				// Every replica failed: abandon the flight so waiting
				// opens retry on demand rather than inheriting a
				// best-effort failure.
				n.finishFlight(t.m.Path, t.flight, errFlightAbandoned)
			}
		}
	}
	return staged
}

// prefetchFrom fetches group from dst with as many plan-sized opFetch
// calls as BatchItems requires — an epoch-scale plan batch cannot build
// one monster frame — and returns the targets dst could not serve so
// the caller can fail over.
func (n *Node) prefetchFrom(dst int, group []*prefetchTarget, level uint8) (staged int, failed []*prefetchTarget) {
	// The split size is read live: a mid-plan SetBatchItems (the
	// autotuner's fetch-shape knob) reshapes the very next call.
	for _, chunk := range rpc.SplitKeys(group, n.BatchItems()) {
		ok, f := n.prefetchChunk(dst, chunk, level)
		staged += ok
		failed = append(failed, f...)
	}
	return staged, failed
}

// prefetchChunk issues one batched opFetch call to dst for one plan-sized
// slice of targets — each item the level-layer prefix of its object —
// decompresses and stages what came back, and finishes the flight of
// every staged target so coalesced opens unblock as soon as their object
// lands.
func (n *Node) prefetchChunk(dst int, group []*prefetchTarget, level uint8) (staged int, failed []*prefetchTarget) {
	req := make([]fetchItem, len(group))
	for i, t := range group {
		req[i] = fetchItem{path: t.m.Path, to: level}
	}
	n.batchedFetches.Inc()
	items, frame, err := n.fetchCall(dst, req)
	if err != nil {
		return 0, group
	}
	// Fan the batch out across the decode pool at prefetch priority: the
	// whole window decompresses in parallel while demand opens still
	// preempt it (they submit at PriOpen and are drained first).
	decoded := make([][]byte, len(items))
	fids := make([]uint8, len(items))
	var wg sync.WaitGroup
	for i := range items {
		it := &items[i]
		if it.Status != rpc.ItemOK {
			continue
		}
		n.remoteBytes.Add(int64(len(it.Payload)))
		n.creditBytesSaved(group[i].m, int64(len(it.Payload)-2))
		i, t := i, group[i]
		wg.Add(1)
		n.decode.Submit(decomp.PriPrefetch, &wg, func(s *codec.Scratch) {
			data, fid, err := n.decodeObject(s, t.m, binary.LittleEndian.Uint16(it.Payload), it.Payload[2:], level)
			if err == nil {
				decoded[i] = data
				fids[i] = fid
			}
		})
	}
	wg.Wait()
	bufpool.Put(frame) // every decode is done with its payload
	for i, it := range items {
		t := group[i]
		if it.Status != rpc.ItemOK || decoded[i] == nil {
			failed = append(failed, t)
			continue
		}
		if n.cache.InsertIdleOwnedFidelity(t.m.Path, decoded[i], fids[i]) {
			staged++
		}
		n.finishFlight(t.m.Path, t.flight, nil)
	}
	return staged, failed
}

// decompress turns a compressed object into file bytes on the shared
// decode pool at the given priority, validating size against the
// metadata record. level is the layer budget for layered objects
// (0/FidelityFull: decode everything the payload carries); the returned
// fidelity reports what the bytes actually reached. The returned buffer
// comes from the shared buffer pool: ownership passes to the caller, who
// must hand it to the cache via InsertOwned/InsertIdleOwned (or recycle
// it on failure).
func (n *Node) decompress(m *FileMeta, compressorID uint16, comp []byte, pri decomp.Priority, level uint8) ([]byte, uint8, error) {
	var out []byte
	var fid uint8
	var err error
	n.decode.Run(pri, func(s *codec.Scratch) {
		out, fid, err = n.decodeObject(s, m, compressorID, comp, level)
	})
	return out, fid, err
}

// decodeObject is the codec work of one decode job, running on a pool
// worker with its per-worker scratch (or inline with a nil scratch when
// the pool is closed). The latency histogram brackets codec time only —
// queue wait has its own instrument ("decomp.queue.wait.latency").
// Layered objects decode through the container path: any layer prefix
// XORs to a full-length record, so the m.Size check holds at every
// fidelity.
func (n *Node) decodeObject(s *codec.Scratch, m *FileMeta, compressorID uint16, comp []byte, level uint8) ([]byte, uint8, error) {
	start := time.Now()
	tstart := n.tracer.Begin()
	var out []byte
	var err error
	fid := FidelityFull
	if codec.IsLayered(compressorID) {
		maxL := 0
		if level != 0 && level != FidelityFull {
			maxL = int(level)
		}
		var k int
		out, k, err = codec.DecodeLayeredScratch(s, bufpool.Get(int(m.Size)), comp, maxL)
		if err == nil {
			n.fidelityHist.Observe(time.Duration(k) * time.Microsecond)
			fid = metaFidelity(m, uint8(k))
		}
	} else {
		cfg, ok := codec.ByID(compressorID)
		if !ok {
			n.tracer.End(trace.OpDecompress, m.Path, trace.OutcomeError, tstart)
			return nil, 0, fmt.Errorf("fanstore: %s: unknown compressor %d", m.Path, compressorID)
		}
		out, err = codec.DecompressScratch(cfg.Codec, s, bufpool.Get(int(m.Size)), comp)
	}
	n.decompressHist.Observe(time.Since(start))
	if err != nil {
		bufpool.Put(out)
		n.tracer.End(trace.OpDecompress, m.Path, trace.OutcomeError, tstart)
		return nil, 0, fmt.Errorf("fanstore: %s: %w", m.Path, err)
	}
	n.tracer.End(trace.OpDecompress, m.Path, trace.OutcomeNone, tstart)
	if int64(len(out)) != m.Size {
		bufpool.Put(out)
		return nil, 0, fmt.Errorf("fanstore: %s: decompressed %d bytes, metadata says %d", m.Path, len(out), m.Size)
	}
	n.decompresses.Inc()
	return out, fid, nil
}

// open produces the decompressed bytes for a metadata record, following
// Fig. 2: cache, then local backend, then remote fetch. Concurrent
// producers of the same uncached file — other opens, or a prefetch
// staging it — share one fetch+decode via singleflight (flight.go): the
// waiter blocks on the leader's flight, then pins the shared cache
// entry. pinned reports whether the returned bytes hold a cache pin the
// caller must Release — false only for the zero-copy passthrough path,
// which never enters the cache. outcome tells the tracer which arm of
// Fig. 2 served the open; an open served by another producer's flight
// reports OutcomeCoalesced.
// level is the open's layer budget (0/FidelityFull: everything); a
// cached entry below the budget's fidelity is a miss, and the producer
// upgrades it in place when a lower-fidelity base is already resident.
func (n *Node) openBytes(m *FileMeta, level uint8) (data []byte, pinned bool, outcome trace.Outcome, err error) {
	want := metaFidelity(m, level)
	coalesced := false
	for {
		if data, _, ok := n.cache.AcquireFidelity(m.Path, want); ok {
			outcome := trace.OutcomeCacheHit
			if coalesced {
				outcome = trace.OutcomeCoalesced
			}
			return data, true, outcome, nil
		}
		f, leader := n.beginFlightFid(m.Path, want)
		if !leader {
			n.fetchCoalesced.Inc()
			coalesced = true
			<-f.done
			if f.err != nil && !errors.Is(f.err, errFlightAbandoned) {
				return nil, false, trace.OutcomeError, f.err
			}
			// The leader's result is in the cache (pinned by an open
			// leader, or staged idle by a prefetch leader); Acquire
			// shares it. If it was abandoned, already evicted (tiny
			// cache), or a lower-fidelity flight than this open needs,
			// loop: the next pass leads its own (upgrade) flight.
			continue
		}
		data, pinned, outcome, err := n.produceBytes(m, level)
		n.finishFlight(m.Path, f, err)
		return data, pinned, outcome, err
	}
}

// produceBytes performs the actual Fig. 2 data path for one file at the
// given layer budget. pinned is false for the zero-copy path (no cache
// entry to release). When a lower-fidelity base is already cached and the
// object is remote, the refinement extents are fetched by byte range and
// XORed onto a copy of the base — the upgrade-in-place path — instead of
// re-fetching the whole prefix.
func (n *Node) produceBytes(m *FileMeta, level uint8) (data []byte, pinned bool, outcome trace.Outcome, err error) {
	n.mu.RLock()
	wdata, written := n.writes[m.Path]
	n.mu.RUnlock()
	switch {
	case written:
		n.localOpens.Inc()
		return n.cache.Insert(m.Path, wdata), true, trace.OutcomeMetaHit, nil
	case n.backend.Contains(m.Path):
		n.localOpens.Inc()
		// Uncompressed RAM-resident objects are served zero-copy from the
		// partition blob: no decompression, no cache footprint (the blob
		// is already resident node-local storage). Counted separately so
		// Stats stays truthful for uncompressed datasets.
		outcome = trace.OutcomeLocal
		if id, raw, ok := n.backend.Peek(m.Path); ok {
			if payload, ok := codec.Passthrough(id, raw); ok {
				n.zeroCopyOpens.Inc()
				return payload, false, trace.OutcomeZeroCopy, nil
			}
		} else {
			// Peek declined: the compressed object lives on the spill
			// backend, so this open pays a disk read.
			outcome = trace.OutcomeSpill
		}
		id, comp, err := n.backend.Get(m.Path)
		if err != nil {
			return nil, false, trace.OutcomeError, err
		}
		// The local payload is whole regardless of budget; the budget
		// still caps decode work (fewer layers XORed).
		data, fid, err := n.decompress(m, id, comp, decomp.PriOpen, level)
		if err != nil {
			return nil, false, trace.OutcomeError, err
		}
		return n.cache.InsertOwnedFidelity(m.Path, data, fid), true, outcome, nil
	default:
		n.remoteOpens.Inc()
		want := metaFidelity(m, level)
		if data, ok := n.upgradeInPlace(m, want); ok {
			return data, true, trace.OutcomeRemoteFetch, nil
		}
		got, outcome, err := n.fetchRemote(m, level)
		if err != nil {
			return nil, false, outcome, err
		}
		data, fid, err := n.decompress(m, got.id, got.data, decomp.PriOpen, level)
		got.release()
		if err != nil {
			return nil, false, trace.OutcomeError, err
		}
		return n.cache.InsertOwnedFidelity(m.Path, data, fid), true, outcome, nil
	}
}

// upgradeInPlace promotes an already-cached lower-fidelity entry to want
// by fetching only the missing refinement extents — the layer window
// [have, want), routed like any other fetch — each body decoded and
// XORed onto a copy of the cached base. On success the upgraded bytes
// replace the entry and return pinned. Any miss — no base cached, no
// extent table, a window-fetch or decode failure — reports ok=false and
// the caller performs a whole budgeted fetch. Opportunistic
// and lossless: the base entry stays pinned (so untouched and valid)
// until the upgraded copy is built from it.
func (n *Node) upgradeInPlace(m *FileMeta, want uint8) (data []byte, ok bool) {
	L := m.Layers()
	if L == 0 || want < 2 {
		return nil, false // unlayered, or nothing above the base to add
	}
	base, have, okBase := n.cache.AcquireAny(m.Path)
	if !okBase {
		return nil, false
	}
	if have >= want {
		// Raced with another producer that already got there.
		return base, true
	}
	to := int(want)
	if want == FidelityFull || to > L {
		to = L
	}
	// have < want <= FidelityFull and have != FidelityFull ⇒ a real level
	// >= 1, so the window [have, want) is exactly the missing refinement.
	from := int(have)
	off := int64(m.LayerPrefix[from-1])
	got, _, err := n.fetchLayers(m, have, want)
	raw := got.data
	if err != nil || int64(len(raw)) != int64(m.LayerPrefix[to-1])-off {
		got.release()
		n.cache.Release(m.Path)
		return nil, false
	}
	out := bufpool.Get(int(m.Size))
	out = append(out, base...)
	n.decode.Run(decomp.PriOpen, func(s *codec.Scratch) {
		plane := bufpool.Get(int(m.Size))
		defer bufpool.Put(plane)
		for j := from; j < to; j++ {
			lo := int(int64(m.LayerPrefix[j-1]) - off)
			hi := int(int64(m.LayerPrefix[j]) - off)
			plane, err = codec.DecodeLayerBodyScratch(s, plane[:0], raw[lo:hi], int(m.Size))
			if err != nil {
				return
			}
			codec.XORInto(out, plane)
		}
	})
	got.release()
	n.cache.Release(m.Path)
	if err != nil {
		bufpool.Put(out)
		return nil, false
	}
	n.fetchUpgrades.Inc()
	n.fidelityHist.Observe(time.Duration(to) * time.Microsecond)
	return n.cache.InsertOwnedFidelity(m.Path, out, metaFidelity(m, uint8(to))), true
}

// Stats snapshots the node's data-path counters — a thin view over the
// registry instruments, kept for tests and existing callers.
func (n *Node) Stats() Stats {
	return Stats{
		LocalOpens:         n.localOpens.Value(),
		RemoteOpens:        n.remoteOpens.Value(),
		ZeroCopyOpens:      n.zeroCopyOpens.Value(),
		Decompresses:       n.decompresses.Value(),
		BytesRead:          n.bytesRead.Value(),
		RemoteBytes:        n.remoteBytes.Value(),
		Failovers:          n.failovers.Value(),
		BatchedFetches:     n.batchedFetches.Value(),
		PrefetchedOpens:    n.cache.prefetchedOpens(),
		FetchCoalesced:     n.fetchCoalesced.Value(),
		PrefetchSuppressed: n.prefetchSuppressed.Value(),
		FetchUpgrades:      n.fetchUpgrades.Value(),
		FetchBytesSaved:    n.fetchBytesSaved.Value(),
		Cache:              n.cache.Stats(),
		Daemon:             n.server.Stats(),
		RPC:                n.client.Stats(),
	}
}

// PlanTarget resolves a path for the epoch planner
// (prefetch.PlanStore): its decompressed size, and whether producing it
// requires a remote fetch (neither written locally, backend-resident,
// nor unknown). Unknown paths report (0, false) and plan as free.
func (n *Node) PlanTarget(path string) (size int64, remote bool) {
	cp := cleanPath(path)
	n.mu.RLock()
	m, ok := n.meta[cp]
	_, written := n.writes[cp]
	n.mu.RUnlock()
	if !ok || written {
		return 0, false
	}
	return m.Size, !n.backend.Contains(cp)
}

// SetFidelity sets the node's layer budget for demand opens and default
// prefetches: 0 (or FidelityFull) restores full fidelity, k caps layered
// objects at their first k layers. A fidelity schedule flips it between
// epochs — entries staged at a lower level upgrade in place the first
// time a higher-budget open touches them. Written files and unlayered
// objects are unaffected: they are always exact.
func (n *Node) SetFidelity(level uint8) { n.fidelity.Store(uint32(normalizeFidelity(level))) }

// FidelityLevel reports the node's current layer budget (FidelityFull
// when no budget is set).
func (n *Node) FidelityLevel() uint8 {
	v := n.fidelity.Load()
	if v == 0 {
		return FidelityFull
	}
	return uint8(v)
}

// CacheHeadroom reports the decompressed cache capacity not held down
// by pinned (currently open) entries — the bytes the planner may stage
// into. Unpinned entries count as headroom: they are evictable, so
// staging over them is admission-safe.
func (n *Node) CacheHeadroom() int64 { return n.cache.Headroom() }

// StagedBytes reports the bytes currently staged by prefetch but not
// yet consumed by an open — the quantity the planner's admission rule
// bounds.
func (n *Node) StagedBytes() int64 { return n.cache.StagedBytes() }

// Registry exposes the node's metrics registry (the one passed in
// Options.Metrics, or the private one Mount created). Cluster reports
// snapshot it; CLI flags dump it.
func (n *Node) Registry() *metrics.Registry { return n.reg }

// Tracer exposes the node's span tracer (nil when tracing is disabled).
func (n *Node) Tracer() *trace.Tracer { return n.tracer }

// Rank returns the rank this node runs on.
func (n *Node) Rank() int { return n.comm.Rank() }

// ID returns this node's stable cluster identity. For an initial member
// it equals the rank; a node that joined later gets the next free ID.
func (n *Node) ID() member.NodeID { return n.selfID }

// View returns the node's cluster-map view (the identity StaticMap until
// the membership changes).
func (n *Node) View() *member.View { return n.view }

// MapVersion returns the cluster-map version the node currently routes
// under.
func (n *Node) MapVersion() uint64 { return n.view.Version() }

// NumFiles reports the number of files in the global namespace.
func (n *Node) NumFiles() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.meta)
}

// LocalFiles reports how many objects this rank's backend holds.
func (n *Node) LocalFiles() int { return n.backend.Len() }
