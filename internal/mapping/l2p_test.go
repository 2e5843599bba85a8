package mapping

import (
	"math"
	"math/rand"
	"testing"

	"learnedftl/internal/nand"
)

// TestL2PMatchesWideSlice drives random Set/Get/Mapped against the []nand.PPN
// the narrow table replaced: every value a device can hold — InvalidPPN,
// page 0, the last page of the largest device — must read back as written.
func TestL2PMatchesWideSlice(t *testing.T) {
	const n = 1 << 12
	m := NewL2P(n)
	wide := make([]nand.PPN, n)
	for i := range wide {
		wide[i] = nand.InvalidPPN
	}
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	edge := []nand.PPN{nand.InvalidPPN, 0, 1, math.MaxInt32 - 1, nand.MaxPages}
	rng := rand.New(rand.NewSource(1))
	check := func(lpn int64) {
		t.Helper()
		if got := m.Get(lpn); got != wide[lpn] {
			t.Fatalf("Get(%d) = %d, want %d", lpn, got, wide[lpn])
		}
		if got, want := m.Mapped(lpn), wide[lpn] != nand.InvalidPPN; got != want {
			t.Fatalf("Mapped(%d) = %v with entry %d", lpn, got, wide[lpn])
		}
	}
	for lpn := int64(0); lpn < n; lpn++ {
		check(lpn) // a new map is all unmapped
	}
	for op := 0; op < 1<<16; op++ {
		lpn := rng.Int63n(n)
		p := nand.PPN(rng.Int63n(nand.MaxPages + 1))
		if rng.Intn(4) == 0 {
			p = edge[rng.Intn(len(edge))]
		}
		m.Set(lpn, p)
		wide[lpn] = p
		check(lpn)
		check(rng.Int63n(n))
	}
	got := m.PPNs()
	for lpn := range wide {
		if got[lpn] != wide[lpn] {
			t.Fatalf("PPNs()[%d] = %d, want %d", lpn, got[lpn], wide[lpn])
		}
	}
	m.Reset()
	for lpn := int64(0); lpn < n; lpn++ {
		if m.Mapped(lpn) || m.Get(lpn) != nand.InvalidPPN {
			t.Fatalf("Reset left LPN %d mapped to %d", lpn, m.Get(lpn))
		}
	}
}
