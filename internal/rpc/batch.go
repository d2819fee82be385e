package rpc

import (
	"encoding/binary"
	"fmt"
)

// Multi-object response frames. A batched fetch carries N objects in one
// round trip and the response carries N independently-statused items, so
// a partial miss (some keys absent from the peer's backend) degrades to
// per-item not-found instead of poisoning the whole batch. The Server
// does not interpret these frames — they ride inside the ordinary
// response payload — but every batched responder and caller shares the
// encoding, so it lives with the wire layer. The request side belongs to
// the store, which alone knows what an item asks for (see fanstore's
// opFetch).
//
// Item frame:  u32 count | (u8 status | u32 len | bytes)*

// DefaultBatchItems is the default ceiling on keys per batched call.
// Epoch-scale prefetch plans are split into frames of this many objects:
// large enough to amortize the round trip, small enough that one call
// neither builds a monster frame nor monopolizes a daemon worker.
const DefaultBatchItems = 64

// SplitKeys cuts keys (object keys, or whatever a caller tracks per
// key) into consecutive plan-sized slices of at most max each — one
// slice per batched call. The slices alias the input. A non-positive max
// means no splitting.
func SplitKeys[K any](keys []K, max int) [][]K {
	if len(keys) == 0 {
		return nil
	}
	if max <= 0 || len(keys) <= max {
		return [][]K{keys}
	}
	out := make([][]K, 0, (len(keys)+max-1)/max)
	for len(keys) > max {
		out = append(out, keys[:max])
		keys = keys[max:]
	}
	return append(out, keys)
}

// Per-item statuses of a batched response.
const (
	// ItemOK marks an item whose payload is the requested object.
	ItemOK = byte(0)
	// ItemNotFound marks a key the responder does not hold (the
	// partial-miss case: the caller fails over or fetches on demand).
	ItemNotFound = byte(1)
	// ItemError marks a per-item handler failure; the payload carries
	// the error text.
	ItemError = byte(2)
	// ItemStale marks a miss under a cluster-map version disagreement:
	// the responder lacks the key and routed on a different map than
	// the caller. The payload carries the responder's explanation.
	ItemStale = byte(3)
)

// ItemHeaderLen is the per-item framing overhead (status + length).
const ItemHeaderLen = 5

// Item is one object of a batched response.
type Item struct {
	Status  byte
	Payload []byte
}

// Err maps the item's status onto the call-level error families routing
// layers branch on: nil for ItemOK, ErrNotFound for a miss, ErrStale for
// a version-mismatched miss, ErrRemote (with the carried text) for
// anything else.
func (it Item) Err() error {
	switch it.Status {
	case ItemOK:
		return nil
	case ItemNotFound:
		return ErrNotFound
	case ItemStale:
		return fmt.Errorf("%w: %s", ErrStale, it.Payload)
	default:
		return fmt.Errorf("%w: %s", ErrRemote, it.Payload)
	}
}

// AppendItemCount starts an item frame of count items in dst.
func AppendItemCount(dst []byte, count int) []byte {
	return binary.LittleEndian.AppendUint32(dst, uint32(count))
}

// AppendItemHeader appends one item's status and payload length; the
// caller appends exactly n payload bytes next. Responders that assemble
// a payload from parts (a header plus a slice of a stored object) write
// it straight into the frame this way instead of staging a copy.
func AppendItemHeader(dst []byte, status byte, n int) []byte {
	dst = append(dst, status)
	return binary.LittleEndian.AppendUint32(dst, uint32(n))
}

// EncodeItems serializes a batched response, one status-framed item per
// requested key, in request order.
func EncodeItems(items []Item) []byte {
	n := 4
	for i := range items {
		n += ItemHeaderLen + len(items[i].Payload)
	}
	out := AppendItemCount(make([]byte, 0, n), len(items))
	for i := range items {
		out = AppendItemHeader(out, items[i].Status, len(items[i].Payload))
		out = append(out, items[i].Payload...)
	}
	return out
}

// DecodeItems parses a batched response payload. Item payloads alias p.
func DecodeItems(p []byte) ([]Item, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("rpc: batch item frame truncated (%d bytes)", len(p))
	}
	count := int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	// The count is untrusted: never preallocate more items than the
	// remaining bytes could possibly frame.
	items := make([]Item, 0, min(count, len(p)/ItemHeaderLen))
	for i := 0; i < count; i++ {
		if len(p) < ItemHeaderLen {
			return nil, fmt.Errorf("rpc: batch item %d: header truncated", i)
		}
		status := p[0]
		l := int(binary.LittleEndian.Uint32(p[1:]))
		p = p[ItemHeaderLen:]
		if len(p) < l {
			return nil, fmt.Errorf("rpc: batch item %d: %d bytes declared, %d remain", i, l, len(p))
		}
		items = append(items, Item{Status: status, Payload: p[:l]})
		p = p[l:]
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("rpc: batch item frame has %d trailing bytes", len(p))
	}
	return items, nil
}
