package main

import (
	"fmt"
	"hash/crc32"

	"fanstore"
	"fanstore/internal/dataset"
)

// Shape shared by every workload: one process, two ranks, each rank one
// closed training loop with zero simulated compute, fed by a prefetch
// pipeline of four I/O workers and depth two.
const (
	ranks     = 2
	ioWorkers = 4
	pipeDepth = 2
)

// workload is one benchmark scenario: a synthetic dataset, how it is
// packed, and how the store and the prefetch pipeline are configured.
// README.md gives the reason for each.
type workload struct {
	name  string
	kind  dataset.Kind
	files int
	// fileSize fixes every file's size in bytes; 0 keeps the dataset's
	// Table II average with its ±15% spread.
	fileSize   int
	codec      string
	tcp        bool
	batch      int
	cacheBytes int64
	// plan drives the epoch-plan Scheduler with live-headroom admission.
	plan bool
	// lookahead, when plan is off, announces this many iterations ahead
	// to the store's reactive prefetcher (0: demand opens only).
	lookahead int
	// warmAll makes every rank read every file during warm-up, so the
	// timed window is served entirely from each rank's cache.
	warmAll bool
}

var workloads = []workload{
	{
		name:  "em-decode",
		kind:  dataset.EM,
		files: 768, fileSize: 64 << 10, codec: "lzsse8",
		batch: 8, cacheBytes: 8 << 20, plan: true,
	},
	{
		name:  "imagenet-fetch",
		kind:  dataset.ImageNet,
		files: 1024, codec: "memcpy", tcp: true,
		batch: 8, cacheBytes: 12 << 20, lookahead: 8,
	},
	{
		name:  "tokamak-hot",
		kind:  dataset.Tokamak,
		files: 16384, codec: "lzf",
		batch: 64, cacheBytes: 256 << 20, warmAll: true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inputs is a packed dataset. The source bytes are dropped after
// packing; only their CRCs and sizes remain, so the store's partitions
// are the only copy of the data in the process.
type inputs struct {
	paths       []string
	crcs        []uint32
	parts       [][]byte // scatter partition of each rank
	rawBytes    int64
	storedBytes int64 // bytes of every partition blob the ranks load
}

// prepare generates the workload's files from seed and packs them into
// one scatter partition per rank (no replicas).
func prepare(w workload, seed int64) (*inputs, error) {
	g := dataset.Generator{Kind: w.kind, Seed: seed, Size: w.fileSize}
	files := make([]fanstore.InputFile, w.files)
	in := &inputs{paths: make([]string, w.files), crcs: make([]uint32, w.files)}
	for i := range files {
		f := g.File(i, w.files)
		files[i] = fanstore.InputFile{Path: f.Path, Data: f.Data}
		in.paths[i] = f.Path
		in.crcs[i] = crc32.ChecksumIEEE(f.Data)
		in.rawBytes += int64(len(f.Data))
	}
	b, err := fanstore.Pack(files, fanstore.BuildOptions{Partitions: ranks, Compressor: w.codec})
	if err != nil {
		return nil, fmt.Errorf("pack %s: %w", w.name, err)
	}
	in.parts = b.Scatter
	for _, p := range in.parts {
		in.storedBytes += int64(len(p))
	}
	return in, nil
}
