package rpc

import "sync"

// ScatterResult is one destination's outcome from Client.Scatter.
type ScatterResult struct {
	Dst  int    // destination rank
	Resp []byte // response payload on success, nil on error
	Err  error  // nil, or the terminal Call error for this destination
}

// Scatter sends the same request to every destination concurrently and
// waits for all of them. Results are ordered like dsts. Unlike Call,
// per-destination failures are reported in the result slice rather than
// aborting the whole operation — the degraded-read shard gather needs
// whatever subset of a stripe survives, not all-or-nothing.
//
// The request buffer is only read, so sharing it across the concurrent
// sends is safe.
func (c *Client) Scatter(dsts []int, req []byte) []ScatterResult {
	out := make([]ScatterResult, len(dsts))
	var wg sync.WaitGroup
	for i, dst := range dsts {
		out[i].Dst = dst
		wg.Add(1)
		go func(i, dst int) {
			defer wg.Done()
			out[i].Resp, _, out[i].Err = c.Call(dst, req)
		}(i, dst)
	}
	wg.Wait()
	return out
}
