package fanstore

import (
	"bytes"
	"testing"
)

// FuzzDecodeFetchRequest checks the opFetch request decoder against
// frames a peer could send: every frame it accepts re-encodes to the
// same bytes, and every frame it rejects fails with an error — never a
// panic, and never an allocation sized by an untrusted count. Without
// -fuzz the seed corpus runs as a regression test.
func FuzzDecodeFetchRequest(f *testing.F) {
	body := func(version uint64, items []fetchItem) []byte {
		return appendFetchRequest(nil, version, items)[1:]
	}
	f.Add(body(1, nil))
	f.Add(body(7, []fetchItem{{path: "em/d0001/f000001.tif", to: FidelityFull}}))
	f.Add(body(3, []fetchItem{{path: "a", to: 1}, {path: "", from: 1, to: 3}, {path: "x/y/z", from: 2, to: 1}}))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0x0f})               // huge count, no items
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0xff, 9, 0, 0, 0, 'a'}) // path longer than the frame
	f.Add(append(body(1, []fetchItem{{path: "p", to: 2}}), 0))                  // trailing byte
	f.Fuzz(func(t *testing.T, p []byte) {
		version, items, err := decodeFetchRequest(p)
		if err != nil {
			return
		}
		enc := appendFetchRequest(nil, version, items)
		if len(enc) != fetchRequestLen(items) {
			t.Fatalf("encoded %d bytes, fetchRequestLen says %d", len(enc), fetchRequestLen(items))
		}
		if enc[0] != opFetch || !bytes.Equal(enc[1:], p) {
			t.Fatalf("round trip changed the frame:\n got %x\nwant %x", enc[1:], p)
		}
	})
}

// TestFetchRequestRoundTrip checks that an opFetch request carries any
// list of object keys, empty ones included, through encode and decode
// unchanged along with the caller's map version.
func TestFetchRequestRoundTrip(t *testing.T) {
	cases := [][]string{
		nil,
		{""},
		{"a"},
		{"dir/file-000.tif", "dir/file-001.tif", "", "x/y/z"},
	}
	for _, keys := range cases {
		items := make([]fetchItem, len(keys))
		for i, k := range keys {
			items[i] = fetchItem{path: k, to: FidelityFull}
		}
		enc := appendFetchRequest(nil, 42, items)
		if enc[0] != opFetch || len(enc) != fetchRequestLen(items) {
			t.Fatalf("%q: op %d, %d bytes, fetchRequestLen says %d", keys, enc[0], len(enc), fetchRequestLen(items))
		}
		version, got, err := decodeFetchRequest(enc[1:])
		if err != nil {
			t.Fatalf("%q: %v", keys, err)
		}
		if version != 42 {
			t.Fatalf("%q: version %d, want 42", keys, version)
		}
		if len(got) != len(items) {
			t.Fatalf("%q: decoded %d items", keys, len(got))
		}
		for i := range items {
			if got[i] != items[i] {
				t.Fatalf("%q: item %d: %+v != %+v", keys, i, got[i], items[i])
			}
		}
	}
}

// TestFetchRequestWindowRoundTrip checks that per-item layer windows —
// whole objects, budgeted prefixes and refinement extents side by side —
// survive the round trip, and that malformed frames are rejected.
func TestFetchRequestWindowRoundTrip(t *testing.T) {
	items := []fetchItem{
		{path: "train/a", from: 0, to: 1},
		{path: "train/b", from: 1, to: 2},
		{path: "", from: 0, to: FidelityFull},
		{path: "train/long/path/c", from: 2, to: 3},
	}
	enc := appendFetchRequest(nil, 9, items)
	version, got, err := decodeFetchRequest(enc[1:])
	if err != nil {
		t.Fatal(err)
	}
	if version != 9 || len(got) != len(items) {
		t.Fatalf("round trip: version %d, %d items", version, len(got))
	}
	for i := range items {
		if got[i] != items[i] {
			t.Fatalf("item %d: %+v != %+v", i, got[i], items[i])
		}
	}

	for _, bad := range [][]byte{
		nil,
		{1},
		{1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 1}, // item header cut short
		append(appendFetchRequest(nil, 9, items)[1:], 9),
	} {
		if _, _, err := decodeFetchRequest(bad); err == nil {
			t.Fatalf("malformed frame %v accepted", bad)
		}
	}
}
