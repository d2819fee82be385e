package fanstore

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestMetaEncodeDecode(t *testing.T) {
	in := []FileMeta{
		{Path: "a/b/c.jpg", Size: 12345, Mode: 0o644, MTime: 99, CRC32: 0xdeadbeef, CompressorID: 7, Owner: 3, MapVersion: 9, PartGID: 5<<32 | 1, Replicas: []int32{1, 2}},
		{Path: "x.txt", Size: 0, Owner: 0, Written: true},
		{Path: "deep/nested/dir/file.bin", Size: 1 << 40, CompressorID: 191, Owner: 511, MapVersion: 1 << 33, PartGID: 1 << 40, Replicas: []int32{510}},
	}
	out, err := decodeMetas(encodeMetas(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
	empty, err := decodeMetas(encodeMetas(nil))
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty round trip: %v %v", empty, err)
	}
}

// TestMetaReplicaFanCap checks the one-byte wire count cannot be
// overflowed: a record with more than maxReplicaFan replicas encodes a
// truncated-but-consistent list, and the entries after it still parse.
func TestMetaReplicaFanCap(t *testing.T) {
	wide := make([]int32, maxReplicaFan+45)
	for i := range wide {
		wide[i] = int32(i)
	}
	in := []FileMeta{
		{Path: "wide.bin", Size: 7, Owner: 1, MapVersion: 3, Replicas: wide},
		{Path: "after.bin", Size: 9, Owner: 2, MapVersion: 3, Replicas: []int32{4, 5}},
	}
	out, err := decodeMetas(encodeMetas(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("decoded %d records, want 2", len(out))
	}
	if len(out[0].Replicas) != maxReplicaFan {
		t.Fatalf("wide record carries %d replicas, want the %d cap", len(out[0].Replicas), maxReplicaFan)
	}
	for i, r := range out[0].Replicas {
		if r != int32(i) {
			t.Fatalf("replica %d = %d; truncation must keep a prefix", i, r)
		}
	}
	if out[1].Path != "after.bin" || out[1].Size != 9 || !reflect.DeepEqual(out[1].Replicas, []int32{4, 5}) {
		t.Fatalf("record after the capped one misparsed: %+v", out[1])
	}
}

func TestMetaDecodeCorrupt(t *testing.T) {
	blob := encodeMetas([]FileMeta{{Path: "f", Size: 1}})
	for _, cut := range []int{0, 3, 5, len(blob) - 1} {
		if _, err := decodeMetas(blob[:cut]); err == nil {
			t.Errorf("truncation to %d accepted", cut)
		}
	}
}

func TestMetaDecodeQuick(t *testing.T) {
	f := func(b []byte) bool {
		metas, err := decodeMetas(b)
		if err != nil {
			return true // rejecting corrupt frames is fine; panics are not
		}
		// Accepted frames must be structurally consistent.
		return len(metas) <= len(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCleanPath(t *testing.T) {
	cases := map[string]string{
		"a/b/c":      "a/b/c",
		"/a/b/c":     "a/b/c",
		"a//b/./c":   "a/b/c",
		"a/b/../c":   "a/c",
		"":           "",
		"/":          "",
		"..":         "",
		"../outside": "outside",
		".":          "",
		"a/b/":       "a/b",
		"a/../../b":  "b",
		"..dot/file": "..dot/file",
	}
	for in, want := range cases {
		if got := cleanPath(in); got != want {
			t.Errorf("cleanPath(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestDirIndex(t *testing.T) {
	d := newDirIndex()
	d.add("imagenet/n001/img1.jpg", 100)
	d.add("imagenet/n001/img2.jpg", 200)
	d.add("imagenet/n002/img3.jpg", 300)
	d.add("readme.txt", 10)

	root, ok := d.list("")
	if !ok {
		t.Fatal("root must exist")
	}
	if len(root) != 2 || root[0].Name != "imagenet" || !root[0].IsDir || root[1].Name != "readme.txt" || root[1].IsDir {
		t.Fatalf("root = %+v", root)
	}

	n1, ok := d.list("imagenet/n001")
	if !ok || len(n1) != 2 {
		t.Fatalf("n001 = %+v, ok=%v", n1, ok)
	}
	if n1[0].Name != "img1.jpg" || n1[0].Size != 100 || n1[0].IsDir {
		t.Fatalf("n001[0] = %+v", n1[0])
	}

	im, ok := d.list("imagenet")
	if !ok || len(im) != 2 || !im[0].IsDir || !im[1].IsDir {
		t.Fatalf("imagenet = %+v", im)
	}

	if _, ok := d.list("imagenet/n003"); ok {
		t.Fatal("nonexistent dir should not list")
	}
	if !d.isDir("imagenet") || d.isDir("imagenet/n001/img1.jpg") {
		t.Fatal("isDir misclassifies")
	}
}

func TestDirIndexDeepPaths(t *testing.T) {
	d := newDirIndex()
	d.add("a/b/c/d/e/f/g.txt", 1)
	for _, dir := range []string{"", "a", "a/b", "a/b/c", "a/b/c/d", "a/b/c/d/e", "a/b/c/d/e/f"} {
		if !d.isDir(dir) {
			t.Fatalf("missing implicit dir %q", dir)
		}
		entries, ok := d.list(dir)
		if !ok || len(entries) != 1 {
			t.Fatalf("dir %q entries: %+v", dir, entries)
		}
	}
}
