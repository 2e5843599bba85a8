package fleet

import "testing"

// layoutFor builds a layout or fails the test.
func layoutFor(t *testing.T, cfg Config, perDevicePages int64) *Layout {
	t.Helper()
	lay, err := NewLayout(cfg, perDevicePages)
	if err != nil {
		t.Fatalf("NewLayout(%+v): %v", cfg, err)
	}
	return lay
}

// TestPlacementCollisionFree enumerates every unit of every policy and
// asserts each (device, slot) pair is assigned at most once, every slot is
// below the layout's used-slot high-water mark, and no device exceeds its
// capacity.
func TestPlacementCollisionFree(t *testing.T) {
	const perDev = 64 * 8 // 64 units of 8 pages per device
	for _, cfg := range []Config{
		{Devices: 4, Policy: Striping},
		{Devices: 4, Policy: Replicate, Replicas: 2},
		{Devices: 5, Policy: Replicate, Replicas: 3},
		{Devices: 4, Policy: Hash},
		{Devices: 7, Policy: Hash, Util: 0.6},
	} {
		lay := layoutFor(t, cfg, perDev)
		maxSlots := lay.PerDevicePages / stripe
		seen := make(map[Loc]int64)
		var locs []Loc
		for u := int64(0); u < lay.Units; u++ {
			locs = lay.Place.Locate(u, locs[:0])
			if len(locs) != lay.Place.Copies() {
				t.Fatalf("%s: unit %d has %d locations, want %d", cfg.Policy, u, len(locs), lay.Place.Copies())
			}
			for _, loc := range locs {
				if loc.Dev < 0 || int(loc.Dev) >= cfg.Devices {
					t.Fatalf("%s: unit %d on device %d of %d", cfg.Policy, u, loc.Dev, cfg.Devices)
				}
				if loc.Slot < 0 || loc.Slot >= maxSlots {
					t.Fatalf("%s: unit %d slot %d exceeds device capacity %d", cfg.Policy, u, loc.Slot, maxSlots)
				}
				if loc.Slot >= lay.UsedSlots[loc.Dev] {
					t.Fatalf("%s: unit %d slot %d above used high-water %d on device %d",
						cfg.Policy, u, loc.Slot, lay.UsedSlots[loc.Dev], loc.Dev)
				}
				if prev, dup := seen[loc]; dup {
					t.Fatalf("%s: units %d and %d collide at %+v", cfg.Policy, prev, u, loc)
				}
				seen[loc] = u
			}
		}
	}
}

// TestPlacementIdentityOneDevice pins the passthrough invariant: on a
// 1-device array every policy is the identity mapping (unit u at slot u),
// so an Array over one device issues exactly the page runs the device
// would see driven directly.
func TestPlacementIdentityOneDevice(t *testing.T) {
	const perDev = 32 * 8
	for _, pol := range Policies() {
		cfg := Config{Devices: 1, Policy: pol}
		if pol == Replicate {
			cfg.Replicas = 1
		}
		lay, err := NewLayout(cfg, perDev)
		if pol == Replicate {
			// Replication on one device is rejected (needs >= 2 copies on
			// >= 2 devices), so the passthrough policies are striping/hash.
			if err == nil {
				t.Fatalf("replicate on 1 device unexpectedly accepted")
			}
			continue
		}
		if err != nil {
			t.Fatalf("NewLayout(%s, 1 device): %v", pol, err)
		}
		if lay.LogicalPages != perDev {
			t.Fatalf("%s: 1-device layout exposes %d pages, want %d", pol, lay.LogicalPages, perDev)
		}
		var locs []Loc
		for u := int64(0); u < lay.Units; u++ {
			locs = lay.Place.Locate(u, locs[:0])
			if len(locs) != 1 || locs[0] != (Loc{Dev: 0, Slot: u}) {
				t.Fatalf("%s: unit %d maps to %+v, want identity", pol, u, locs)
			}
		}
	}
}

// TestHashBoundedLoad fills the ring to 100% utilization: bounded loads
// must land exactly unitsPerDev units on every device, never overflowing
// any of them.
func TestHashBoundedLoad(t *testing.T) {
	const perDev = 48 * 8
	lay := layoutFor(t, Config{Devices: 4, Policy: Hash}, perDev)
	unitsPerDev := int64(perDev / stripe)
	if lay.Units != 4*unitsPerDev {
		t.Fatalf("full-util hash layout exposes %d units, want %d", lay.Units, 4*unitsPerDev)
	}
	counts := make([]int64, 4)
	var locs []Loc
	for u := int64(0); u < lay.Units; u++ {
		locs = lay.Place.Locate(u, locs[:0])
		counts[locs[0].Dev]++
	}
	for d, c := range counts {
		if c != unitsPerDev {
			t.Fatalf("device %d holds %d units, want exactly %d at full utilization", d, c, unitsPerDev)
		}
	}
}

// TestHashRingIsDeterministic pins that equal configs build equal rings:
// the hash layout is a pure function of the config and the capacity.
func TestHashRingIsDeterministic(t *testing.T) {
	const perDev = 64 * 8
	a := layoutFor(t, Config{Devices: 4, Policy: Hash, Util: 0.5}, perDev)
	b := layoutFor(t, Config{Devices: 4, Policy: Hash, Util: 0.5}, perDev)
	var la, lb []Loc
	for u := int64(0); u < a.Units; u++ {
		la, lb = a.Place.Locate(u, la[:0]), b.Place.Locate(u, lb[:0])
		if la[0] != lb[0] {
			t.Fatalf("same config, unit %d differs: %+v vs %+v", u, la[0], lb[0])
		}
	}
}

// TestLayoutValidation rejects the nonsense configurations loudly.
func TestLayoutValidation(t *testing.T) {
	const perDev = 64 * 8
	for _, cfg := range []Config{
		{Devices: 0},
		{Devices: 2, Policy: "raid6"},
		{Devices: 2, Policy: Replicate, Replicas: 3},
		{Devices: 2, Util: 1.5},
	} {
		if _, err := NewLayout(cfg, perDev); err == nil {
			t.Errorf("NewLayout(%+v) accepted, want error", cfg)
		}
	}
	// A device smaller than one stripe unit holds no unit.
	if _, err := NewLayout(Config{Devices: 2}, stripe-1); err == nil {
		t.Errorf("a %d-page device under a %d-page stripe unit accepted", stripe-1, stripe)
	}
	if _, err := NewLayout(Config{Devices: 2}, stripe); err != nil {
		t.Errorf("a device of exactly one stripe unit rejected: %v", err)
	}
}

// TestUtilHeadroom pins the rebuild capacity arithmetic: at Util = 0.5 a
// replicated layout leaves at least half of every device's slots above the
// used high-water mark.
func TestUtilHeadroom(t *testing.T) {
	const perDev = 64 * 8
	lay := layoutFor(t, Config{Devices: 4, Policy: Replicate, Replicas: 2, Util: 0.5}, perDev)
	maxSlots := lay.PerDevicePages / stripe
	for d, used := range lay.UsedSlots {
		if spare := maxSlots - used; spare < maxSlots/3 {
			t.Errorf("device %d: only %d spare slots of %d at Util 0.5", d, spare, maxSlots)
		}
	}
}
