package fanstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"fanstore/internal/pack"
)

// Backend is the node-local storage layer holding this rank's compressed
// objects (§IV-C1): RAM aliasing the loaded partition blobs, a local
// disk (the paper's SSD back end), or anything future — mmap, tiered —
// that can answer Get. Both the local open path and the daemon serve
// from it. Implementations must be safe for concurrent use; the daemon
// worker pool calls Get from many goroutines.
type Backend interface {
	// AddPartition ingests every entry of a parsed partition blob, making
	// the compressed objects retrievable by their clean path.
	AddPartition(blob []byte, part *pack.Partition) error
	// Get returns the compressed bytes and compressor of one object, or
	// an error wrapping ErrNotExist when the backend does not hold it.
	Get(path string) (compressorID uint16, data []byte, err error)
	// Peek returns a zero-copy alias of the object's compressed bytes
	// when they are RAM-resident; ok=false means Get would perform I/O
	// (or the object is absent). The store uses it for the uncompressed
	// passthrough path.
	Peek(path string) (compressorID uint16, data []byte, ok bool)
	// Blob returns the whole partition blob AddPartition ingested the
	// object at path with — what a rebalance handoff or an erasure-shard
	// push sends. The RAM backend returns the resident blob; the spill
	// backend reads its spill file back.
	Blob(path string) ([]byte, error)
	// Contains reports whether the backend holds path.
	Contains(path string) bool
	// Remove forgets the given objects — the old owner's half of a
	// rebalance handoff commit. Space reclamation is backend-specific
	// (the RAM backend keeps the partition blob alive until all of its
	// entries are gone; the spill backend only drops index entries).
	Remove(paths []string)
	// Len reports how many objects the backend holds.
	Len() int
	// Close releases backend resources (spill file handles, ...).
	Close() error
}

// ramBackend serves compressed objects straight from the partition blobs
// kept in memory — the paper's RAM back end. Entries alias the blob; no
// bytes are copied at ingest or Get.
type ramBackend struct {
	mu      sync.RWMutex
	objects map[string]ramObject
}

type ramObject struct {
	compressorID uint16
	data         []byte
	blob         []byte // the partition blob data aliases
}

// NewRAMBackend builds an empty RAM backend.
func NewRAMBackend() Backend {
	return &ramBackend{objects: make(map[string]ramObject)}
}

func (b *ramBackend) AddPartition(blob []byte, part *pack.Partition) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := range part.Entries {
		e := &part.Entries[i]
		b.objects[cleanPath(e.Path)] = ramObject{compressorID: e.CompressorID, data: e.Data, blob: blob}
	}
	return nil
}

func (b *ramBackend) Get(path string) (uint16, []byte, error) {
	b.mu.RLock()
	o, ok := b.objects[path]
	b.mu.RUnlock()
	if !ok {
		return 0, nil, fmt.Errorf("%w: %s (ram backend)", ErrNotExist, path)
	}
	return o.compressorID, o.data, nil
}

func (b *ramBackend) Peek(path string) (uint16, []byte, bool) {
	b.mu.RLock()
	o, ok := b.objects[path]
	b.mu.RUnlock()
	return o.compressorID, o.data, ok
}

func (b *ramBackend) Blob(path string) ([]byte, error) {
	b.mu.RLock()
	o, ok := b.objects[path]
	b.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s (ram backend)", ErrNotExist, path)
	}
	return o.blob, nil
}

func (b *ramBackend) Contains(path string) bool {
	b.mu.RLock()
	_, ok := b.objects[path]
	b.mu.RUnlock()
	return ok
}

func (b *ramBackend) Remove(paths []string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, p := range paths {
		delete(b.objects, cleanPath(p))
	}
}

func (b *ramBackend) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.objects)
}

func (b *ramBackend) Close() error { return nil }

// spillBackend is the local-disk back end (§IV-C1: "if local disks
// (e.g., SSD) are the back end, the compressed data files are stored in
// the local file system"): each ingested partition blob is written to one
// spill file under dir, and Get reads the compressed payload back with a
// positioned read, freeing RAM for the training program.
type spillBackend struct {
	dir    string
	prefix string

	mu      sync.RWMutex
	objects map[string]spillObject
	files   []*os.File
	closed  bool
}

type spillObject struct {
	compressorID uint16
	file         *os.File
	off, size    int64
}

// NewSpillBackend builds a disk backend writing spill files under dir
// (created if needed) named <prefix>-part<NNNN>.fst. Ranks sharing a
// directory must use distinct prefixes.
func NewSpillBackend(dir, prefix string) (Backend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fanstore: spill dir: %w", err)
	}
	if prefix == "" {
		prefix = "spill"
	}
	return &spillBackend{
		dir:     dir,
		prefix:  prefix,
		objects: make(map[string]spillObject),
	}, nil
}

func (b *spillBackend) AddPartition(blob []byte, part *pack.Partition) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	name := filepath.Join(b.dir, fmt.Sprintf("%s-part%04d.fst", b.prefix, len(b.files)))
	if err := os.WriteFile(name, blob, 0o644); err != nil {
		return fmt.Errorf("fanstore: spill write: %w", err)
	}
	f, err := os.Open(name)
	if err != nil {
		return fmt.Errorf("fanstore: spill open: %w", err)
	}
	b.files = append(b.files, f)
	for i := range part.Entries {
		e := &part.Entries[i]
		b.objects[cleanPath(e.Path)] = spillObject{
			compressorID: e.CompressorID,
			file:         f,
			off:          e.Offset,
			size:         int64(len(e.Data)),
		}
	}
	return nil
}

func (b *spillBackend) Get(path string) (uint16, []byte, error) {
	b.mu.RLock()
	o, ok := b.objects[path]
	closed := b.closed
	b.mu.RUnlock()
	if !ok {
		return 0, nil, fmt.Errorf("%w: %s (spill backend)", ErrNotExist, path)
	}
	if closed {
		return 0, nil, fmt.Errorf("fanstore: spill backend closed: %s", path)
	}
	buf := make([]byte, o.size)
	if _, err := o.file.ReadAt(buf, o.off); err != nil {
		return 0, nil, fmt.Errorf("fanstore: spill read: %w", err)
	}
	return o.compressorID, buf, nil
}

func (b *spillBackend) Peek(string) (uint16, []byte, bool) {
	return 0, nil, false // nothing is RAM-resident by construction
}

func (b *spillBackend) Blob(path string) ([]byte, error) {
	b.mu.RLock()
	o, ok := b.objects[path]
	closed := b.closed
	b.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s (spill backend)", ErrNotExist, path)
	}
	if closed {
		return nil, fmt.Errorf("fanstore: spill backend closed: %s", path)
	}
	return os.ReadFile(o.file.Name())
}

func (b *spillBackend) Contains(path string) bool {
	b.mu.RLock()
	_, ok := b.objects[path]
	b.mu.RUnlock()
	return ok
}

func (b *spillBackend) Remove(paths []string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, p := range paths {
		delete(b.objects, cleanPath(p))
	}
}

func (b *spillBackend) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.objects)
}

func (b *spillBackend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	b.closed = true
	var first error
	for _, f := range b.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
