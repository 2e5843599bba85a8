// Package fleet generalizes the single-device simulator into an array of
// independent simulated SSDs behind a host placement layer. Each device is
// a full ftl.FTL with its own flash array, GC, wear and fault state; the
// Array routes host requests across them under one virtual clock, so tail
// latency and wear imbalance can be measured across the array under skewed
// multi-tenant load — including a mid-run device failure with rebuild
// traffic competing against foreground tenants.
//
// Placement is stripe-unit granular: the fleet's logical page space is cut
// into fixed-size units and a Placement maps each unit to one or more
// device-local slots. Three policies are built in — RAID-0 striping,
// K-way replication with chained declustering, and consistent hashing with
// virtual nodes and bounded loads. All three are identity mappings on a
// 1-device array, so a passthrough Array is byte-identical to driving the
// device directly (pinned by the root package's equivalence tests).
package fleet

import (
	"fmt"
	"sort"
)

// Policy names a placement policy.
type Policy string

// The built-in placement policies.
const (
	// Striping is RAID-0: unit u lives only on device u mod N. Maximum
	// parallelism, no redundancy — a device failure loses its units.
	Striping Policy = "striping"
	// Replicate keeps K copies of every unit, spread by chained
	// declustering (copy r of unit u on device (u+r) mod N). Reads go to
	// the least-busy alive replica; writes fan out to all of them. A
	// failed device's units are re-replicated onto survivors.
	Replicate Policy = "replicate"
	// Hash places each unit by consistent hashing over a virtual-node
	// ring, with bounded loads so no device exceeds its capacity. Single
	// copy, like striping, but placement survives renumbering devices.
	Hash Policy = "hash"
)

// Policies returns the built-in policies in presentation order.
func Policies() []Policy { return []Policy{Striping, Replicate, Hash} }

// ParsePolicy maps a flag value to a Policy, reporting whether the name
// was recognized ("" parses as striping, the default).
func ParsePolicy(s string) (Policy, bool) {
	switch Policy(s) {
	case "", Striping:
		return Striping, true
	case Replicate:
		return Replicate, true
	case Hash:
		return Hash, true
	default:
		return Striping, false
	}
}

// Loc is one replica location: a device index and the device-local stripe
// unit slot. The unit's pages live at Slot*Stripe + offset on that device.
type Loc struct {
	Dev  int32
	Slot int64
}

// Placement maps fleet-logical stripe units to device-local slots.
type Placement interface {
	// Copies is the number of replicas each unit has (1 for the
	// single-copy policies).
	Copies() int
	// Locate appends unit u's replica locations to dst in replica order
	// and returns the extended slice. The order is fixed per unit, so
	// routing decisions derived from it are deterministic.
	Locate(u int64, dst []Loc) []Loc
}

// Config parameterizes a fleet layout.
type Config struct {
	// Devices is the array width N (>= 1).
	Devices int
	// Policy selects the placement ("" = striping).
	Policy Policy
	// Replicas is the copy count K for Replicate (default 2; the
	// single-copy policies ignore it).
	Replicas int
	// Stripe is the stripe unit size in pages (default 8).
	Stripe int
	// VNodes is the number of virtual ring nodes per device for Hash
	// (default 64).
	VNodes int
	// Util is the fraction of the aggregate usable logical capacity the
	// fleet exposes (default 1.0). Replication rebuild re-homes the dead
	// device's units into the headroom Util leaves, so a failure scenario
	// needs Util <= (N-1)/N to fully re-replicate.
	Util float64
	// Seed perturbs the Hash ring (default 1).
	Seed int64
}

// withDefaults fills the zero-value knobs.
func (c Config) withDefaults() Config {
	if c.Policy == "" {
		c.Policy = Striping
	}
	if c.Replicas == 0 {
		c.Replicas = 2
	}
	if c.Stripe == 0 {
		c.Stripe = 8
	}
	if c.VNodes == 0 {
		c.VNodes = 64
	}
	if c.Util == 0 {
		c.Util = 1.0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Layout is a constructed placement over concrete device capacities: the
// fleet's exposed logical space, the per-device slot high-water marks (the
// boundary rebuild allocates spare slots above), and the Placement itself.
type Layout struct {
	Cfg Config
	// Units is the number of stripe units the fleet exposes and
	// LogicalPages the resulting fleet-logical page space (Units*Stripe).
	Units        int64
	LogicalPages int64
	// PerDevicePages is each device's own logical capacity (all devices
	// are identical).
	PerDevicePages int64
	// UsedSlots[d] is one past the highest slot placement assigned on
	// device d; rebuild re-homes units into slots at and above it.
	UsedSlots []int64
	Place     Placement
}

// NewLayout validates cfg against the per-device logical capacity and
// constructs the placement. perDevicePages is Config.LogicalPages() of the
// identical devices the array will hold.
func NewLayout(cfg Config, perDevicePages int64) (*Layout, error) {
	c := cfg.withDefaults()
	if c.Devices < 1 {
		return nil, fmt.Errorf("fleet: need >= 1 device, got %d", c.Devices)
	}
	if _, ok := ParsePolicy(string(c.Policy)); !ok {
		return nil, fmt.Errorf("fleet: unknown placement policy %q (want one of %v)", c.Policy, Policies())
	}
	if c.Stripe < 1 {
		return nil, fmt.Errorf("fleet: stripe unit %d pages out of range", c.Stripe)
	}
	if c.Util < 0 || c.Util > 1 {
		return nil, fmt.Errorf("fleet: utilization %v out of (0, 1]", c.Util)
	}
	if c.Policy == Replicate {
		if c.Replicas < 2 {
			return nil, fmt.Errorf("fleet: replication needs >= 2 copies, got %d", c.Replicas)
		}
		if c.Replicas > c.Devices {
			return nil, fmt.Errorf("fleet: %d replicas exceed %d devices", c.Replicas, c.Devices)
		}
	}
	s := int64(c.Stripe)
	unitsPerDev := perDevicePages / s
	if unitsPerDev < 1 {
		return nil, fmt.Errorf("fleet: stripe unit %d pages exceeds device capacity %d", c.Stripe, perDevicePages)
	}
	n := int64(c.Devices)
	lay := &Layout{Cfg: c, PerDevicePages: perDevicePages, UsedSlots: make([]int64, c.Devices)}
	switch c.Policy {
	case Striping:
		units := scaleUnits(c.Util, n*unitsPerDev)
		lay.Units = units
		lay.Place = stripePlace{n: n}
		for d := int64(0); d < n; d++ {
			lay.UsedSlots[d] = slotsOnDevice(units, n, d)
		}
	case Replicate:
		k := int64(c.Replicas)
		units := scaleUnits(c.Util, n*(unitsPerDev/k))
		lay.Units = units
		lay.Place = replicatePlace{n: n, k: k}
		// Device d holds copy r of every unit u with (u+r) mod N == d, at
		// slot (u/N)*K + r: K slots per stripe row it participates in.
		for d := int64(0); d < n; d++ {
			var hi int64
			for r := int64(0); r < k; r++ {
				u0 := ((d-r)%n + n) % n // lowest unit with copy r on d
				if u0 >= units {
					continue
				}
				rows := (units - u0 + n - 1) / n
				if top := (rows-1)*k + r + 1; top > hi {
					hi = top
				}
			}
			lay.UsedSlots[d] = hi
		}
	case Hash:
		units := scaleUnits(c.Util, n*unitsPerDev)
		place, used := newHashPlace(c, units, unitsPerDev)
		lay.Units = units
		lay.Place = place
		copy(lay.UsedSlots, used)
	}
	lay.LogicalPages = lay.Units * s
	if lay.Units < 1 {
		return nil, fmt.Errorf("fleet: utilization %v exposes no stripe units", c.Util)
	}
	return lay, nil
}

// scaleUnits applies the utilization factor to a unit capacity.
func scaleUnits(util float64, capacity int64) int64 {
	u := int64(util * float64(capacity))
	if u > capacity {
		u = capacity
	}
	return u
}

// slotsOnDevice is how many of `units` round-robin units land on device d
// of n: one per full round plus one if d is inside the partial round.
func slotsOnDevice(units, n, d int64) int64 {
	s := units / n
	if d < units%n {
		s++
	}
	return s
}

// stripePlace is RAID-0: unit u on device u mod N at slot u / N. On a
// 1-device array this is the identity mapping.
type stripePlace struct{ n int64 }

func (p stripePlace) Copies() int { return 1 }
func (p stripePlace) Locate(u int64, dst []Loc) []Loc {
	return append(dst, Loc{Dev: int32(u % p.n), Slot: u / p.n})
}

// replicatePlace keeps K copies by chained declustering: copy r of unit u
// on device (u+r) mod N at slot (u/N)*K + r. Distinct (row, r) pairs give
// distinct slots, so the layout is collision-free by construction.
type replicatePlace struct{ n, k int64 }

func (p replicatePlace) Copies() int { return int(p.k) }
func (p replicatePlace) Locate(u int64, dst []Loc) []Loc {
	row := u / p.n
	for r := int64(0); r < p.k; r++ {
		dst = append(dst, Loc{Dev: int32((u + r) % p.n), Slot: row*p.k + r})
	}
	return dst
}

// hashPlace is consistent hashing with virtual nodes and bounded loads:
// each unit hashes onto a ring of Devices*VNodes points and walks clockwise
// to the first device with spare capacity, so no device overflows even at
// full utilization. Slots are assigned by rank in ascending unit order, so
// a 1-device ring is the identity mapping. The whole table is precomputed;
// Locate is an array read.
type hashPlace struct {
	locs []Loc // unit -> location
}

func (p hashPlace) Copies() int { return 1 }
func (p hashPlace) Locate(u int64, dst []Loc) []Loc {
	return append(dst, p.locs[u])
}

// splitmix64 is the ring's hash (same mixer the fault model uses):
// statistically strong, allocation-free, deterministic.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// ringNode is one virtual node: a hash position owned by a device.
type ringNode struct {
	hash uint64
	dev  int32
}

// newHashPlace builds the bounded-load consistent-hash table for `units`
// stripe units and returns it with the per-device used-slot counts.
func newHashPlace(c Config, units, unitsPerDev int64) (hashPlace, []int64) {
	ring := make([]ringNode, 0, c.Devices*c.VNodes)
	for d := 0; d < c.Devices; d++ {
		for v := 0; v < c.VNodes; v++ {
			h := splitmix64(uint64(c.Seed)<<32 ^ uint64(d)<<16 ^ uint64(v))
			ring = append(ring, ringNode{hash: h, dev: int32(d)})
		}
	}
	// Hash ties broken by (dev, insertion order) via stable sort, so the
	// ring is deterministic even on 64-bit collisions.
	sort.SliceStable(ring, func(i, j int) bool { return ring[i].hash < ring[j].hash })
	used := make([]int64, c.Devices)
	locs := make([]Loc, units)
	for u := int64(0); u < units; u++ {
		h := splitmix64(uint64(c.Seed)*0x9E3779B97F4A7C15 ^ uint64(u))
		i := sort.Search(len(ring), func(i int) bool { return ring[i].hash >= h })
		// Bounded loads: walk clockwise past full devices. Capacity
		// invariant units <= Devices*unitsPerDev guarantees a slot exists.
		for {
			d := ring[i%len(ring)].dev
			if used[d] < unitsPerDev {
				locs[u] = Loc{Dev: d, Slot: used[d]}
				used[d]++
				break
			}
			i++
		}
	}
	return hashPlace{locs: locs}, used
}
