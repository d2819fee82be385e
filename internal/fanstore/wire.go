package fanstore

import (
	"encoding/binary"
	"fmt"

	"fanstore/internal/codec"
)

// Fetch-plane ops, the first byte of every tagFetch payload. All ops are
// answered by the same daemon worker pool — rebalance partition pulls
// deliberately share it with reads, so a handoff streams while the
// cluster keeps serving. DESIGN.md's wire-op table documents the frames.
const (
	// opFetch is the one data-plane request: a version-stamped batch of
	// layer windows (see appendFetchRequest). The response is an
	// rpc.EncodeItems frame with one status-framed item per window, each
	// OK payload shaped [u16 compressorID][bytes].
	opFetch = byte(0)
	// opFetchPart requests a whole partition blob by its global id
	// ([u64 gid]) — the rebalance transfer: the new owner pulls the blob
	// from the old owner over the ordinary fetch pool while the old
	// owner keeps serving its objects until the handoff commits.
	opFetchPart = byte(3)
	// opMetaSync requests one path's current metadata record from the
	// coordinator (the stale-map refresh's metadata half); the response
	// is encodeMetas of zero or one record.
	opMetaSync = byte(4)
	// opFetchShard requests every erasure shard of one partition held by
	// the answering node ([u64 gid]); the response is a concatenation of
	// pack shard frames. Degraded reads and shard repair gather through
	// it (ec redundancy mode only).
	opFetchShard = byte(5)
	// opStoreShard delivers one or more shard frames for the answering
	// node to hold — the shard-placement half of ec redundancy. Re-pushes
	// of the same (gid, index) overwrite.
	opStoreShard = byte(6)
	// opWriteMeta forwards written files' metadata records (encodeMetas)
	// to their metadata home (§V-D). The empty reply is the ack: it is
	// sent once the records are in the home's table.
	opWriteMeta = byte(7)
)

// fetchItem asks for the layer window [from, to) of one object's
// container. (0, FidelityFull) is the whole object; (0, k) the budgeted
// prefix a fidelity-k reader needs; (h, k) with h >= 1 the refinement
// extents an upgrade from fidelity h is missing. A window reaching past
// the object's last layer is clipped to it, and an unlayered object only
// answers windows starting at 0, whole.
type fetchItem struct {
	path     string
	from, to uint8
}

// fetchItemMin is the smallest encoded window: from, to, and a u32 path
// length with an empty path.
const fetchItemMin = 6

// appendFetchRequest appends an opFetch request to dst:
//
//	opFetch | u64 mapVersion | u32 count | count × (u8 from | u8 to | u32 len | path)
//
// mapVersion is the caller's cluster-map version; a responder missing an
// item under a different version answers rpc.ItemStale instead of
// rpc.ItemNotFound.
func appendFetchRequest(dst []byte, version uint64, items []fetchItem) []byte {
	dst = append(dst, opFetch)
	dst = binary.LittleEndian.AppendUint64(dst, version)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(items)))
	for _, it := range items {
		dst = append(dst, it.from, it.to)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(it.path)))
		dst = append(dst, it.path...)
	}
	return dst
}

// fetchRequestLen is the encoded size of an opFetch request for items.
func fetchRequestLen(items []fetchItem) int {
	n := 1 + 8 + 4
	for _, it := range items {
		n += fetchItemMin + len(it.path)
	}
	return n
}

// decodeFetchRequest parses an opFetch body (the payload after the op
// byte). The frame comes from a peer, so the declared count only bounds
// the loop: capacity is capped by what the remaining bytes can frame.
func decodeFetchRequest(p []byte) (version uint64, items []fetchItem, err error) {
	if len(p) < 12 {
		return 0, nil, fmt.Errorf("fanstore: fetch request truncated (%d bytes)", len(p))
	}
	version = binary.LittleEndian.Uint64(p)
	count := int(binary.LittleEndian.Uint32(p[8:]))
	p = p[12:]
	items = make([]fetchItem, 0, min(count, len(p)/fetchItemMin))
	for i := 0; i < count; i++ {
		if len(p) < fetchItemMin {
			return 0, nil, fmt.Errorf("fanstore: fetch item %d: header truncated", i)
		}
		from, to := p[0], p[1]
		l := int(binary.LittleEndian.Uint32(p[2:]))
		p = p[fetchItemMin:]
		if len(p) < l {
			return 0, nil, fmt.Errorf("fanstore: fetch item %d: %d path bytes declared, %d remain", i, l, len(p))
		}
		items = append(items, fetchItem{path: string(p[:l]), from: from, to: to})
		p = p[l:]
	}
	if len(p) != 0 {
		return 0, nil, fmt.Errorf("fanstore: fetch request has %d trailing bytes", len(p))
	}
	return version, items, nil
}

// cutWindow returns the bytes of window [from, to) of a stored object's
// payload, cut against the object's own layer index — a peer names
// layers, never raw offsets. Windows starting at 0 on an unlayered
// object, or with to >= the layer count, run to the end of the payload.
func cutWindow(id uint16, data []byte, from, to uint8) ([]byte, error) {
	if from >= to {
		return nil, fmt.Errorf("fanstore: empty layer window [%d,%d)", from, to)
	}
	if from == 0 && (to == FidelityFull || !codec.IsLayered(id)) {
		return data, nil
	}
	if !codec.IsLayered(id) {
		return nil, fmt.Errorf("fanstore: layer window [%d,%d) of an unlayered object", from, to)
	}
	ix, err := codec.ParseLayerIndex(data)
	if err != nil {
		if from == 0 {
			// A corrupt index would fail the reader's decode anyway;
			// answer whole so the error surfaces with full evidence.
			return data, nil
		}
		return nil, err
	}
	L := ix.Layers()
	if int(from) >= L {
		return nil, fmt.Errorf("fanstore: layer window [%d,%d) past the last of %d layers", from, to, L)
	}
	lo, hi := 0, len(data)
	if from > 0 {
		lo = ix.PrefixSize(int(from))
	}
	if int(to) < L {
		hi = ix.PrefixSize(int(to))
	}
	if hi > len(data) {
		return nil, fmt.Errorf("fanstore: layer window [%d,%d) ends at %d, payload has %d bytes", from, to, hi, len(data))
	}
	return data[lo:hi], nil
}
