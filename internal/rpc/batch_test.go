package rpc

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"fanstore/internal/mpi"
)

func TestBatchItemFrameRoundTrip(t *testing.T) {
	items := []Item{
		{Status: ItemOK, Payload: []byte("compressed bytes")},
		{Status: ItemNotFound},
		{Status: ItemError, Payload: []byte("spill read failed")},
		{Status: ItemOK, Payload: nil},
	}
	got, err := DecodeItems(EncodeItems(items))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(items) {
		t.Fatalf("decoded %d items, want %d", len(got), len(items))
	}
	for i := range items {
		if got[i].Status != items[i].Status {
			t.Fatalf("item %d: status %d != %d", i, got[i].Status, items[i].Status)
		}
		if !bytes.Equal(got[i].Payload, items[i].Payload) {
			t.Fatalf("item %d: payload mismatch", i)
		}
	}
}

func TestBatchFrameMalformed(t *testing.T) {
	if _, err := DecodeItems(nil); err == nil {
		t.Fatal("nil item frame decoded")
	}
	if _, err := DecodeItems([]byte{1, 0}); err == nil {
		t.Fatal("truncated item frame decoded")
	}
	if _, err := DecodeItems([]byte{1, 0, 0, 0, ItemOK, 8, 0, 0, 0, 'x'}); err == nil {
		t.Fatal("item with short payload decoded")
	}
	if _, err := DecodeItems(append(EncodeItems([]Item{{Status: ItemOK}}), 0)); err == nil {
		t.Fatal("trailing bytes accepted in item frame")
	}
	// A huge declared count with nothing behind it must fail on the
	// missing bytes, not preallocate ~268M items first.
	if _, err := DecodeItems([]byte{0xff, 0xff, 0xff, 0x0f}); err == nil {
		t.Fatal("huge-count item frame decoded")
	}
}

// TestBatchedCallPartialMiss drives a batched frame through a real
// client/server pair: the handler answers per key with OK or not-found,
// and the partial miss comes back as an item status instead of failing
// the call.
func TestBatchedCallPartialMiss(t *testing.T) {
	objects := map[string]string{"a": "alpha", "c": "gamma"}
	err := mpi.Run(2, func(c *mpi.Comm) error {
		if c.Rank() == 1 {
			s := serveOn(c, func(_ int, req []byte) ([]byte, error) {
				keys := strings.Split(string(req), ",")
				items := make([]Item, len(keys))
				for i, k := range keys {
					if v, ok := objects[k]; ok {
						items[i] = Item{Status: ItemOK, Payload: []byte(v)}
					} else {
						items[i] = Item{Status: ItemNotFound}
					}
				}
				return reply(EncodeItems(items)), nil
			}, ServerOptions{})
			if err := c.Barrier(); err != nil {
				return err
			}
			s.Stop()
			return nil
		}
		cl := NewClient(c, 500, 1<<20, ClientOptions{})
		resp, _, err := cl.Call(1, []byte("a,b,c"))
		if err != nil {
			return err
		}
		items, err := DecodeItems(resp)
		if err != nil {
			return err
		}
		if len(items) != 3 {
			t.Fatalf("got %d items", len(items))
		}
		if items[0].Status != ItemOK || string(items[0].Payload) != "alpha" {
			t.Fatalf("item 0: %+v", items[0])
		}
		if items[1].Status != ItemNotFound || !errors.Is(items[1].Err(), ErrNotFound) {
			t.Fatalf("item 1 (the miss): status %d", items[1].Status)
		}
		if items[2].Status != ItemOK || string(items[2].Payload) != "gamma" {
			t.Fatalf("item 2: %+v", items[2])
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}
