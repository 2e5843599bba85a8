package learned

import "testing"

// TestMemo: a memo has a power-of-two number of slots and starts empty; a
// slot remembers the page and stamp it was last filled with, declines
// included, until an LPN of the same slot takes it over.
func TestMemo(t *testing.T) {
	for n, want := range map[int]int{0: 1, 1: 1, 3: 4, 4096: 4096, 4097: 8192} {
		if got := len(NewMemo(n)); got != want {
			t.Errorf("NewMemo(%d) has %d slots, want %d", n, got, want)
		}
	}
	m := NewMemo(8)
	if _, _, ok := m.Get(0); ok {
		t.Fatal("an empty memo holds LPN 0")
	}
	m.Put(3, 7, 42)
	m.Put(4, 8, -1)
	m.Put(4, 9, -1)
	for _, c := range []struct {
		lpn   int64
		ppn   int64
		stamp uint64
		ok    bool
	}{{3, 42, 7, true}, {4, -1, 9, true}, {11, 0, 0, false}, {5, 0, 0, false}} {
		if ppn, stamp, ok := m.Get(c.lpn); ok != c.ok || ok && (ppn != c.ppn || stamp != c.stamp) {
			t.Errorf("Get(%d) = %d, %d, %v; want %d, %d, %v", c.lpn, ppn, stamp, ok, c.ppn, c.stamp, c.ok)
		}
	}
	m.Put(11, 10, 5) // slot 3's new LPN
	if _, _, ok := m.Get(3); ok {
		t.Error("LPN 3 still held after LPN 11 took its slot")
	}
	if ppn, stamp, ok := m.Get(11); !ok || ppn != 5 || stamp != 10 {
		t.Errorf("Get(11) = %d, %d, %v; want 5, 10, true", ppn, stamp, ok)
	}
}
