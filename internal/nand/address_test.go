package nand

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func testGeom() Geometry {
	return Geometry{Channels: 4, Ways: 2, Planes: 1, BlocksPerUnit: 8, PagesPerBlock: 16, PageSize: 4096}
}

func TestPaperGeometryMatchesPaper(t *testing.T) {
	g := PaperGeometry()
	if got := g.Chips(); got != 64 {
		t.Errorf("Chips() = %d, want 64", got)
	}
	if got := g.TotalPages(); got != 8388608 {
		t.Errorf("TotalPages() = %d, want 8388608 (paper Fig. 11)", got)
	}
	if got := g.TotalBytes(); got != 32<<30 {
		t.Errorf("TotalBytes() = %d, want 32 GiB", got)
	}
}

func TestScaledGeometryPreservesParallelism(t *testing.T) {
	for _, scale := range []int{1, 2, 8, 16, 1024} {
		g := ScaledGeometry(scale)
		if g.Chips() != 64 {
			t.Errorf("scale %d: Chips() = %d, want 64", scale, g.Chips())
		}
		if g.PagesPerBlock != 512 {
			t.Errorf("scale %d: PagesPerBlock = %d, want 512", scale, g.PagesPerBlock)
		}
		if g.BlocksPerUnit < 4 {
			t.Errorf("scale %d: BlocksPerUnit = %d, want >= 4", scale, g.BlocksPerUnit)
		}
	}
}

func TestGeometryValidate(t *testing.T) {
	if err := testGeom().Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	bad := testGeom()
	bad.Channels = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero-channel geometry accepted")
	}
}

// TestValidateRejectsOversizedGeometry: the page count is computed without
// overflowing and capped at MaxPages — the width of the flash array's keys
// and the FTLs' mapping entries — so a hostile geometry is an error from
// Validate (and from NewFlash) before anything sizes an allocation by it.
func TestValidateRejectsOversizedGeometry(t *testing.T) {
	huge := 1 << 40
	cases := []struct {
		name string
		g    Geometry
		ok   bool
	}{
		{"product overflows int64", Geometry{huge, huge, 1, huge, 512, 4096}, false},
		{"exactly 2^31 pages", Geometry{8, 8, 1, 1 << 16, 512, 4096}, false},
		{"2^31-1 pages", Geometry{1, 1, 1, 1, MaxPages, 4096}, true},
		{"(2^31-1)·2 pages", Geometry{2, 1, 1, 1, MaxPages, 4096}, false},
	}
	for _, c := range cases {
		err := c.g.Validate()
		if (err == nil) != c.ok {
			t.Fatalf("%s: Validate = %v, want ok=%v", c.name, err, c.ok)
		}
		if !c.ok {
			if _, err := NewFlash(c.g, DefaultTiming()); err == nil {
				t.Fatalf("%s: NewFlash accepted it", c.name)
			}
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c := NewAddrCodec(testGeom())
	g := c.Geometry()
	for ch := 0; ch < g.Channels; ch++ {
		for w := 0; w < g.Ways; w++ {
			for b := 0; b < g.BlocksPerUnit; b++ {
				for p := 0; p < g.PagesPerBlock; p++ {
					a := Addr{Channel: ch, Way: w, Block: b, Page: p}
					got := c.Decode(c.Encode(a))
					if got != a {
						t.Fatalf("Decode(Encode(%+v)) = %+v", a, got)
					}
				}
			}
		}
	}
}

func TestPPNRangeIsDense(t *testing.T) {
	c := NewAddrCodec(testGeom())
	g := c.Geometry()
	seen := make(map[PPN]bool)
	for ch := 0; ch < g.Channels; ch++ {
		for w := 0; w < g.Ways; w++ {
			for b := 0; b < g.BlocksPerUnit; b++ {
				for p := 0; p < g.PagesPerBlock; p++ {
					ppn := c.Encode(Addr{Channel: ch, Way: w, Block: b, Page: p})
					if ppn < 0 || int(ppn) >= g.TotalPages() {
						t.Fatalf("PPN %d out of range [0,%d)", ppn, g.TotalPages())
					}
					if seen[ppn] {
						t.Fatalf("PPN %d assigned twice", ppn)
					}
					seen[ppn] = true
				}
			}
		}
	}
	if len(seen) != g.TotalPages() {
		t.Fatalf("%d distinct PPNs, want %d", len(seen), g.TotalPages())
	}
}

// TestVPPNBijection is the core §III-C property: PPN→VPPN→PPN is identity,
// checked exhaustively on a small geometry and by quick.Check on paper scale.
func TestVPPNBijection(t *testing.T) {
	c := NewAddrCodec(testGeom())
	total := c.Geometry().TotalPages()
	seen := make(map[VPPN]bool, total)
	for p := PPN(0); int(p) < total; p++ {
		v := c.ToVirtual(p)
		if v < 0 || int(v) >= total {
			t.Fatalf("VPPN %d out of range for PPN %d", v, p)
		}
		if seen[v] {
			t.Fatalf("VPPN %d produced twice", v)
		}
		seen[v] = true
		if back := c.ToPhysical(v); back != p {
			t.Fatalf("ToPhysical(ToVirtual(%d)) = %d", p, back)
		}
	}
}

func TestVPPNBijectionQuickPaperScale(t *testing.T) {
	c := NewAddrCodec(PaperGeometry())
	total := int64(c.Geometry().TotalPages())
	f := func(seed int64) bool {
		p := PPN(((seed % total) + total) % total)
		return c.ToPhysical(c.ToVirtual(p)) == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestVPPNStripeContiguity checks the property the paper's learned index
// depends on: pages written round-robin across channels then ways at the
// same (block, page) position receive consecutive VPPNs.
func TestVPPNStripeContiguity(t *testing.T) {
	c := NewAddrCodec(testGeom())
	g := c.Geometry()
	blk, pg := 3, 7
	var prev VPPN = -1
	for w := 0; w < g.Ways; w++ {
		for ch := 0; ch < g.Channels; ch++ {
			v := c.EncodeVirtual(Addr{Channel: ch, Way: w, Block: blk, Page: pg})
			if prev != -1 && v != prev+1 {
				t.Fatalf("stripe not contiguous: ch=%d way=%d VPPN=%d prev=%d", ch, w, v, prev)
			}
			prev = v
		}
	}
}

// TestVPPNPaperExample reproduces the shape of the paper's Fig. 12: three
// LPNs written to the same (plane, block, page) coordinates on adjacent
// chips have wildly separated PPNs but consecutive VPPNs.
func TestVPPNPaperExample(t *testing.T) {
	c := NewAddrCodec(PaperGeometry())
	a1 := Addr{Channel: 4, Way: 5, Plane: 0, Block: 64, Page: 127}
	a2 := Addr{Channel: 5, Way: 5, Plane: 0, Block: 64, Page: 127}
	a3 := Addr{Channel: 6, Way: 5, Plane: 0, Block: 64, Page: 127}
	p1, p2, p3 := c.Encode(a1), c.Encode(a2), c.Encode(a3)
	if p2-p1 == 1 || p3-p2 == 1 {
		t.Fatalf("PPNs unexpectedly contiguous: %d %d %d", p1, p2, p3)
	}
	v1, v2, v3 := c.EncodeVirtual(a1), c.EncodeVirtual(a2), c.EncodeVirtual(a3)
	if v2 != v1+1 || v3 != v2+1 {
		t.Fatalf("VPPNs not contiguous: %d %d %d", v1, v2, v3)
	}
}

func TestSuperblockVPPNBase(t *testing.T) {
	c := NewAddrCodec(testGeom())
	g := c.Geometry()
	sb := c.SuperblockPages()
	if want := g.Chips() * g.Planes * g.PagesPerBlock; sb != want {
		t.Fatalf("SuperblockPages = %d, want %d", sb, want)
	}
	for blk := 0; blk < g.BlocksPerUnit; blk++ {
		base := c.SuperblockVPPNBase(blk)
		if int64(base) != int64(blk)*int64(sb) {
			t.Fatalf("block %d: base %d, want %d", blk, base, int64(blk)*int64(sb))
		}
		// Every VPPN in [base, base+sb) must decode to block blk.
		for _, off := range []int{0, 1, sb / 2, sb - 1} {
			a := c.DecodeVirtual(base + VPPN(off))
			if a.Block != blk {
				t.Fatalf("VPPN %d decodes to block %d, want %d", int64(base)+int64(off), a.Block, blk)
			}
		}
	}
}

func TestChipOfPPN(t *testing.T) {
	c := NewAddrCodec(testGeom())
	g := c.Geometry()
	for i := 0; i < 100; i++ {
		a := Addr{
			Channel: rand.Intn(g.Channels), Way: rand.Intn(g.Ways),
			Block: rand.Intn(g.BlocksPerUnit), Page: rand.Intn(g.PagesPerBlock),
		}
		if got, want := c.Chip(c.Encode(a)), a.Channel*g.Ways+a.Way; got != want {
			t.Fatalf("Chip(%+v) = %d, want %d", a, got, want)
		}
	}
}

func TestInvalidSentinelConversions(t *testing.T) {
	c := NewAddrCodec(testGeom())
	if c.ToVirtual(InvalidPPN) != InvalidVPPN {
		t.Error("ToVirtual(InvalidPPN) != InvalidVPPN")
	}
	if c.ToPhysical(InvalidVPPN) != InvalidPPN {
		t.Error("ToPhysical(InvalidVPPN) != InvalidPPN")
	}
}

func TestBlockIDAndBlockAddr(t *testing.T) {
	c := NewAddrCodec(testGeom())
	g := c.Geometry()
	for bid := 0; bid < g.TotalBlocks(); bid++ {
		a := c.BlockAddr(bid)
		if a.Page != 0 {
			t.Fatalf("BlockAddr(%d).Page = %d", bid, a.Page)
		}
		p := c.Encode(a)
		if got := c.BlockID(p); got != bid {
			t.Fatalf("BlockID(Encode(BlockAddr(%d))) = %d", bid, got)
		}
	}
}

// refDecode and refDecodeVirtual are the codec by definition — one division
// and one remainder per field — kept as the reference the multiplicative
// codec is checked against.
func refDecode(g Geometry, p PPN) Addr {
	v := int64(p)
	var a Addr
	a.Page = int(v % int64(g.PagesPerBlock))
	v /= int64(g.PagesPerBlock)
	a.Block = int(v % int64(g.BlocksPerUnit))
	v /= int64(g.BlocksPerUnit)
	a.Plane = int(v % int64(g.Planes))
	v /= int64(g.Planes)
	a.Way = int(v % int64(g.Ways))
	a.Channel = int(v / int64(g.Ways))
	return a
}

func refDecodeVirtual(g Geometry, v VPPN) Addr {
	x := int64(v)
	var a Addr
	a.Channel = int(x % int64(g.Channels))
	x /= int64(g.Channels)
	a.Way = int(x % int64(g.Ways))
	x /= int64(g.Ways)
	a.Plane = int(x % int64(g.Planes))
	x /= int64(g.Planes)
	a.Page = int(x % int64(g.PagesPerBlock))
	a.Block = int(x / int64(g.PagesPerBlock))
	return a
}

// TestCodecMatchesDivisionFormulas checks every page of several geometries —
// only the first's plane count a power of two, some of the others' fields 1,
// the last's all powers of two —
// against the division formulas: the full decodes, both conversions and each
// single-field accessor.
func TestCodecMatchesDivisionFormulas(t *testing.T) {
	for _, g := range []Geometry{
		{Channels: 3, Ways: 5, Planes: 2, BlocksPerUnit: 7, PagesPerBlock: 11, PageSize: 4096},
		{Channels: 1, Ways: 1, Planes: 1, BlocksPerUnit: 1, PagesPerBlock: 1, PageSize: 512},
		{Channels: 2, Ways: 1, Planes: 3, BlocksPerUnit: 5, PagesPerBlock: 64, PageSize: 4096},
		testGeom(),
	} {
		c := NewAddrCodec(g)
		for i := 0; i < g.TotalPages(); i++ {
			p, v := PPN(i), VPPN(i)
			a := refDecode(g, p)
			if got := c.Decode(p); got != a {
				t.Fatalf("%v: Decode(%d) = %+v, want %+v", g, p, got, a)
			}
			if got := c.Encode(a); got != p {
				t.Fatalf("%v: Encode(Decode(%d)) = %d", g, p, got)
			}
			if got := c.Chip(p); got != a.Channel*g.Ways+a.Way {
				t.Fatalf("%v: Chip(%d) = %d, want %d", g, p, got, a.Channel*g.Ways+a.Way)
			}
			if got := c.BlockID(p); got != i/g.PagesPerBlock {
				t.Fatalf("%v: BlockID(%d) = %d, want %d", g, p, got, i/g.PagesPerBlock)
			}
			if bid, pg := c.BlockPage(p); bid != i/g.PagesPerBlock || pg != a.Page {
				t.Fatalf("%v: BlockPage(%d) = %d,%d, want %d,%d", g, p, bid, pg, i/g.PagesPerBlock, a.Page)
			}
			if got := c.Block(p); got != a.Block {
				t.Fatalf("%v: Block(%d) = %d, want %d", g, p, got, a.Block)
			}
			if got, want := c.ToVirtual(p), c.EncodeVirtual(a); got != want {
				t.Fatalf("%v: ToVirtual(%d) = %d, want %d", g, p, got, want)
			}
			va := refDecodeVirtual(g, v)
			if got := c.DecodeVirtual(v); got != va {
				t.Fatalf("%v: DecodeVirtual(%d) = %+v, want %+v", g, v, got, va)
			}
			if got, want := c.ToPhysical(v), c.Encode(va); got != want {
				t.Fatalf("%v: ToPhysical(%d) = %d, want %d", g, v, got, want)
			}
			if got := c.ToPhysical(c.ToVirtual(p)); got != p {
				t.Fatalf("%v: ToPhysical(ToVirtual(%d)) = %d", g, p, got)
			}
		}
		if got, want := c.BlockBase(g.TotalBlocks()-1), PPN(g.TotalPages()-g.PagesPerBlock); got != want {
			t.Fatalf("%v: BlockBase(last) = %d, want %d", g, got, want)
		}
	}
}

// TestDivisorExact checks the division against the hardware's on divisors
// around every power of two and dividends around every multiple boundary,
// up to the full 64-bit range, and that exactly the powers of two take the
// shift.
func TestDivisorExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var ds []int
	for sh := 0; sh < 62; sh++ {
		for _, d := range []int{1<<sh - 1, 1 << sh, 1<<sh + 1} {
			if d >= 1 {
				ds = append(ds, d)
			}
		}
	}
	for i := 0; i < 200; i++ {
		ds = append(ds, 1+rng.Intn(1<<20), 1+int(rng.Int63()))
	}
	for _, d := range ds {
		v := newDivisor(d)
		if pow2 := d&(d-1) == 0; pow2 != (v.m == 0) {
			t.Fatalf("divisor %d: power of two %v, shift path %v", d, pow2, v.m == 0)
		}
		ns := []uint64{0, 1, uint64(d) - 1, uint64(d), uint64(d) + 1, 1<<63 - 1, 1 << 63, ^uint64(0)}
		for i := 0; i < 50; i++ {
			k := rng.Uint64()
			ns = append(ns, k, k/uint64(d)*uint64(d), k/uint64(d)*uint64(d)-1)
		}
		for _, n := range ns {
			if q, r := v.divmod(n); q != n/uint64(d) || r != n%uint64(d) {
				t.Fatalf("divmod(%d) by %d = %d r %d, want %d r %d", n, d, q, r, n/uint64(d), n%uint64(d))
			}
		}
	}
}
