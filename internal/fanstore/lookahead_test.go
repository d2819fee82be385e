package fanstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"fanstore/internal/dataset"
	"fanstore/internal/decomp"
	"fanstore/internal/mpi"
	"fanstore/internal/pack"
	"fanstore/internal/rpc"
)

// ownedPaths lists the file paths packed into one scatter partition.
func ownedPaths(t testing.TB, part []byte) []string {
	t.Helper()
	p, err := pack.Parse(part)
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, len(p.Entries))
	for i := range p.Entries {
		paths[i] = p.Entries[i].Path
	}
	return paths
}

// TestPrefetchStagesRemoteWindow is the tentpole acceptance test: rank 0
// announces its upcoming window of rank-1-owned files via Prefetch, one
// batched FetchMany stages them unpinned into the cache, and the
// subsequent opens are all served locally — zero on-demand remote
// fetches, every open counted as prefetched, no pins left behind.
func TestPrefetchStagesRemoteWindow(t *testing.T) {
	bundle, want := buildBundle(t, dataset.ImageNet, 12, 2, 4<<10, nil)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		node, err := Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil, Options{CacheBytes: 1 << 20})
		if err != nil {
			return err
		}
		defer node.Close()
		if c.Rank() != 0 {
			return nil // serve until rank 0's Close barrier
		}
		window := ownedPaths(t, bundle.Scatter[1])
		if staged := node.Prefetch(window); staged != len(window) {
			return fmt.Errorf("staged %d of %d", staged, len(window))
		}
		for _, p := range window {
			got, err := node.ReadFile(p)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want[p]) {
				return fmt.Errorf("%s: content mismatch", p)
			}
		}
		st := node.Stats()
		if st.BatchedFetches < 1 {
			return fmt.Errorf("no batched fetches issued: %+v", st)
		}
		if st.RemoteOpens != 0 {
			return fmt.Errorf("%d opens fell back to on-demand fetch", st.RemoteOpens)
		}
		if st.PrefetchedOpens != int64(len(window)) {
			return fmt.Errorf("prefetched opens %d, want %d", st.PrefetchedOpens, len(window))
		}
		if st.Cache.Pinned != 0 {
			return fmt.Errorf("%d entries still pinned after close", st.Cache.Pinned)
		}
		if st.Cache.DoubleReleases != 0 {
			return fmt.Errorf("%d double releases", st.Cache.DoubleReleases)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPrefetchSkipsSettledPaths checks the admission filter: local,
// unknown, and already-staged paths never generate fetch traffic.
func TestPrefetchSkipsSettledPaths(t *testing.T) {
	bundle, _ := buildBundle(t, dataset.EM, 8, 2, 2<<10, nil)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		node, err := Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil, Options{CacheBytes: 1 << 20})
		if err != nil {
			return err
		}
		defer node.Close()
		if c.Rank() != 0 {
			return nil
		}
		local := ownedPaths(t, bundle.Scatter[0])
		if staged := node.Prefetch(local); staged != 0 {
			return fmt.Errorf("staged %d local files", staged)
		}
		if staged := node.Prefetch([]string{"no/such/file", ""}); staged != 0 {
			return fmt.Errorf("staged %d unknown files", staged)
		}
		if st := node.Stats(); st.BatchedFetches != 0 {
			return fmt.Errorf("filtered windows still issued %d fetches", st.BatchedFetches)
		}
		remote := ownedPaths(t, bundle.Scatter[1])
		if staged := node.Prefetch(remote); staged != len(remote) {
			return fmt.Errorf("staged %d of %d remote files", staged, len(remote))
		}
		calls := node.Stats().BatchedFetches
		// The window is already staged: announcing it again is free.
		if staged := node.Prefetch(remote); staged != 0 {
			return fmt.Errorf("re-staged %d already-cached files", staged)
		}
		if got := node.Stats().BatchedFetches; got != calls {
			return fmt.Errorf("cached window issued %d extra fetches", got-calls)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFetchManyPartialMissOverWire drives hand-built opFetch frames
// through the live daemon, one table case per window shape: whole
// objects, misses, budgeted prefixes and refinement windows come back
// byte-exact against the stored container; a miss under a different map
// version comes back ItemStale; malformed windows fail per item while
// the call itself — and the rest of its batch — succeeds.
func TestFetchManyPartialMissOverWire(t *testing.T) {
	plain, want := buildBundle(t, dataset.Language, 6, 2, 2<<10, nil)
	layered, _ := buildLayeredBundle(t, dataset.EM, 4, 2, 8<<10, 4)
	// The responder's stored objects, keyed by path.
	stored := make(map[string]*pack.Entry)
	for _, blob := range [][]byte{plain.Scatter[1], layered.Scatter[1]} {
		part, err := pack.Parse(blob)
		if err != nil {
			t.Fatal(err)
		}
		for i := range part.Entries {
			stored[part.Entries[i].Path] = &part.Entries[i]
		}
	}
	p0, p1 := ownedPaths(t, plain.Scatter[1])[0], ownedPaths(t, plain.Scatter[1])[1]
	lp := ownedPaths(t, layered.Scatter[1])[0]
	ix, ok, err := stored[lp].LayerIndex()
	if err != nil || !ok {
		t.Fatalf("layered entry index: ok=%v err=%v", ok, err)
	}
	whole := func(path string) []byte { return stored[path].Data }

	type wantItem struct {
		status byte
		bytes  []byte // expected window bytes of an OK item
	}
	cases := []struct {
		name    string
		version uint64
		items   []fetchItem
		want    []wantItem
	}{
		{"whole object", 1, []fetchItem{{path: p0, to: FidelityFull}},
			[]wantItem{{rpc.ItemOK, whole(p0)}}},
		{"miss", 1, []fetchItem{{path: "missing/object", to: FidelityFull}},
			[]wantItem{{status: rpc.ItemNotFound}}},
		{"batch with partial miss", 1, []fetchItem{{path: p0, to: FidelityFull}, {path: "missing/object", to: FidelityFull}, {path: p1, to: FidelityFull}},
			[]wantItem{{rpc.ItemOK, whole(p0)}, {status: rpc.ItemNotFound}, {rpc.ItemOK, whole(p1)}}},
		{"layer-budget prefix", 1, []fetchItem{{path: lp, to: 1}},
			[]wantItem{{rpc.ItemOK, whole(lp)[:ix.PrefixSize(1)]}}},
		{"budget past the last layer", 1, []fetchItem{{path: lp, to: 9}},
			[]wantItem{{rpc.ItemOK, whole(lp)}}},
		{"refinement window", 1, []fetchItem{{path: lp, from: 1, to: 3}},
			[]wantItem{{rpc.ItemOK, whole(lp)[ix.PrefixSize(1):ix.PrefixSize(3)]}}},
		{"version-mismatched miss", 2, []fetchItem{{path: "missing/object", to: FidelityFull}, {path: p0, to: FidelityFull}},
			[]wantItem{{status: rpc.ItemStale}, {rpc.ItemOK, whole(p0)}}},
		{"refinement of an unlayered object", 1, []fetchItem{{path: p0, from: 1, to: 2}},
			[]wantItem{{status: rpc.ItemError}}},
		{"inverted window", 1, []fetchItem{{path: lp, from: 2, to: 1}},
			[]wantItem{{status: rpc.ItemError}}},
		{"empty window", 1, []fetchItem{{path: lp, from: 2, to: 2}},
			[]wantItem{{status: rpc.ItemError}}},
		{"window past the last layer", 1, []fetchItem{{path: lp, from: 4, to: FidelityFull}},
			[]wantItem{{status: rpc.ItemError}}},
	}

	err = mpi.Run(2, func(c *mpi.Comm) error {
		parts := [][]byte{plain.Scatter[c.Rank()], layered.Scatter[c.Rank()]}
		node, err := Mount(c, parts, nil, Options{})
		if err != nil {
			return err
		}
		defer node.Close()
		if c.Rank() != 0 {
			return nil
		}
		for _, tc := range cases {
			resp, _, err := node.client.Call(1, appendFetchRequest(nil, tc.version, tc.items))
			if err != nil {
				return fmt.Errorf("%s: %w", tc.name, err)
			}
			items, err := rpc.DecodeItems(resp)
			if err != nil {
				return fmt.Errorf("%s: %w", tc.name, err)
			}
			if len(items) != len(tc.want) {
				return fmt.Errorf("%s: got %d items for %d windows", tc.name, len(items), len(tc.want))
			}
			for i, w := range tc.want {
				it := items[i]
				if it.Status != w.status {
					return fmt.Errorf("%s: item %d: status %d, want %d (%s)", tc.name, i, it.Status, w.status, it.Payload)
				}
				if w.status != rpc.ItemOK {
					continue
				}
				e := stored[tc.items[i].path]
				if len(it.Payload) < 2 || binary.LittleEndian.Uint16(it.Payload) != e.CompressorID {
					return fmt.Errorf("%s: item %d: bad compressor header", tc.name, i)
				}
				if !bytes.Equal(it.Payload[2:], w.bytes) {
					return fmt.Errorf("%s: item %d: %d window bytes differ from the stored container's %d", tc.name, i, len(it.Payload)-2, len(w.bytes))
				}
			}
		}

		// A whole object off the wire decodes to the original file.
		resp, _, err := node.client.Call(1, appendFetchRequest(nil, 1, []fetchItem{{path: p0, to: FidelityFull}}))
		if err != nil {
			return err
		}
		items, err := rpc.DecodeItems(resp)
		if err != nil {
			return err
		}
		m := &FileMeta{Path: p0, Size: int64(len(want[p0]))}
		data, _, err := node.decompress(m, binary.LittleEndian.Uint16(items[0].Payload), items[0].Payload[2:], decomp.PriOpen, FidelityFull)
		if err != nil {
			return err
		}
		if !bytes.Equal(data, want[p0]) {
			return fmt.Errorf("whole object: content mismatch")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPrefetchFailsOverToReplica mirrors TestReplicaFailover for the
// batched path: when the owner's backend errors per item, the prefetch
// round retries the failed targets against the replica and still stages
// the full window.
func TestPrefetchFailsOverToReplica(t *testing.T) {
	const ranks = 3
	bundle, want := buildBundle(t, dataset.EM, 6, 1, 4<<10, nil)
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		opts := Options{CacheBytes: 1 << 20}
		var parts [][]byte
		switch c.Rank() {
		case 1: // owner, with broken storage
			opts.Backend = &failBackend{Backend: NewRAMBackend()}
			parts = [][]byte{bundle.Scatter[0]}
		case 2: // replica, announced at mount
			opts.Replicas = [][]byte{bundle.Scatter[0]}
		}
		node, err := Mount(c, parts, nil, opts)
		if err != nil {
			return err
		}
		defer node.Close()
		if c.Rank() != 0 {
			return nil
		}
		window := ownedPaths(t, bundle.Scatter[0])
		if staged := node.Prefetch(window); staged != len(window) {
			return fmt.Errorf("staged %d of %d despite a live replica", staged, len(window))
		}
		for _, p := range window {
			got, err := node.ReadFile(p)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want[p]) {
				return fmt.Errorf("%s: content mismatch", p)
			}
		}
		st := node.Stats()
		if st.RemoteOpens != 0 {
			return fmt.Errorf("%d opens fell back to on-demand fetch", st.RemoteOpens)
		}
		if st.PrefetchedOpens != int64(len(window)) {
			return fmt.Errorf("prefetched opens %d, want %d", st.PrefetchedOpens, len(window))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestZeroCopyCloseHoldsNoPin guards the pin-accounting fix: zero-copy
// fds never entered the cache, so Close must not Release them — before
// the fix every such Close was a double release against the pool.
func TestZeroCopyCloseHoldsNoPin(t *testing.T) {
	g := dataset.Generator{Kind: dataset.EM, Seed: 11, Size: 2 << 10}
	const nFiles = 4
	files := make([]pack.InputFile, nFiles)
	for i := range files {
		f := g.File(i, nFiles)
		files[i] = pack.InputFile{Path: f.Path, Data: f.Data}
	}
	bundle, err := pack.Build(files, pack.BuildOptions{Partitions: 1, Compressor: "memcpy"})
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(1, func(c *mpi.Comm) error {
		node, err := Mount(c, [][]byte{bundle.Scatter[0]}, nil, Options{})
		if err != nil {
			return err
		}
		defer node.Close()
		for pass := 0; pass < 3; pass++ {
			for i := range files {
				f, err := node.Open(files[i].Path)
				if err != nil {
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
			}
		}
		st := node.Stats()
		if st.ZeroCopyOpens != 3*nFiles {
			return fmt.Errorf("zero-copy opens %d, want %d", st.ZeroCopyOpens, 3*nFiles)
		}
		if st.Cache.DoubleReleases != 0 {
			return fmt.Errorf("zero-copy closes produced %d double releases", st.Cache.DoubleReleases)
		}
		if st.Cache.Entries != 0 || st.Cache.Pinned != 0 {
			return fmt.Errorf("zero-copy path touched the cache: %+v", st.Cache)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentOpenCloseStormPinInvariants hammers a tiny Immediate
// cache with concurrent open/read/close cycles and checks the refcount
// invariants afterwards: no pins survive the storm, used stays at zero
// (Immediate drops at refs==0), and no Close ever double-released.
func TestConcurrentOpenCloseStormPinInvariants(t *testing.T) {
	const nFiles, fileSize = 8, 2 << 10
	bundle, want := buildBundle(t, dataset.Language, nFiles, 1, fileSize, nil)
	err := mpi.Run(1, func(c *mpi.Comm) error {
		// Capacity of ~2 files keeps eviction pressure constant.
		node, err := Mount(c, [][]byte{bundle.Scatter[0]}, nil, Options{
			CacheBytes:  2 * fileSize,
			CachePolicy: Immediate,
		})
		if err != nil {
			return err
		}
		defer node.Close()
		paths := ownedPaths(t, bundle.Scatter[0])
		var wg sync.WaitGroup
		errCh := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					p := paths[(g*7+i)%len(paths)]
					f, err := node.Open(p)
					if err != nil {
						errCh <- err
						return
					}
					buf := make([]byte, f.Size())
					n, err := f.ReadAt(buf, 0)
					if err != nil && n != len(want[p]) {
						errCh <- fmt.Errorf("%s: read %d: %v", p, n, err)
						f.Close()
						return
					}
					if !bytes.Equal(buf[:n], want[p]) {
						errCh <- fmt.Errorf("%s: content mismatch under storm", p)
						f.Close()
						return
					}
					if err := f.Close(); err != nil {
						errCh <- err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			return err
		}
		st := node.Stats()
		if st.Cache.Pinned != 0 {
			return fmt.Errorf("%d pins survived the storm", st.Cache.Pinned)
		}
		if st.Cache.DoubleReleases != 0 {
			return fmt.Errorf("%d double releases under storm", st.Cache.DoubleReleases)
		}
		if st.Cache.Used != 0 {
			return fmt.Errorf("immediate cache still holds %d bytes after quiesce", st.Cache.Used)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
