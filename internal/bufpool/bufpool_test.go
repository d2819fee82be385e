package bufpool

import "testing"

func TestGetCapacity(t *testing.T) {
	for _, n := range []int{0, 1, 511, 512, 513, 4096, 1 << 20, (1 << 26) + 1} {
		b := Get(n)
		if len(b) != 0 {
			t.Fatalf("Get(%d): len %d, want 0", n, len(b))
		}
		if cap(b) < n {
			t.Fatalf("Get(%d): cap %d too small", n, cap(b))
		}
		Put(b)
	}
	Put(nil) // must not panic
}

// TestPutForeignFloorClass: a foreign buffer binned by floor class must
// still satisfy the capacity guarantee of the Get that receives it.
func TestPutForeignFloorClass(t *testing.T) {
	// 768 floors to the 512 class: any Get(n<=512) that receives it
	// still has cap >= 512.
	Put(make([]byte, 0, 768))
	for i := 0; i < 32; i++ {
		b := Get(512)
		if cap(b) < 512 {
			t.Fatalf("Get(512) returned cap %d", cap(b))
		}
	}
}
