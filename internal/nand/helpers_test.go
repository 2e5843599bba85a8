package nand

// DecodeVirtual unpacks a VPPN into its address fields.
func (c AddrCodec) DecodeVirtual(v VPPN) Addr {
	k := c.k
	x, channel := k.channels.divmod(uint64(v))
	x, way := k.ways.divmod(x)
	x, plane := k.planes.divmod(x)
	block, page := k.pages.divmod(x)
	return Addr{Channel: int(channel), Way: int(way), Plane: int(plane), Block: int(block), Page: int(page)}
}

// SuperblockVPPNBase returns the first VPPN of the superblock stripe that
// uses block index blk in every plane of every chip. A superblock's VPPNs
// are contiguous: [base, base + Chips()*Planes*PagesPerBlock).
func (c AddrCodec) SuperblockVPPNBase(blk int) VPPN {
	return c.EncodeVirtual(Addr{Block: blk})
}

// TornPages returns a copy of the torn-page roster.
func (f *Flash) TornPages() []PPN { return append([]PPN(nil), f.torn...) }

// EncodeVirtual packs an address into a VPPN following the allocation order
// channel → way → plane → page → block.
func (c AddrCodec) EncodeVirtual(a Addr) VPPN {
	g := &c.k.g
	v := ((int64(a.Block)*int64(g.PagesPerBlock)+int64(a.Page))*int64(g.Planes)+
		int64(a.Plane))*int64(g.Ways) + int64(a.Way)
	return VPPN(v*int64(g.Channels) + int64(a.Channel))
}
