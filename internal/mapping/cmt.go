// Package mapping implements the DRAM-side address-translation structures
// shared by the demand-based FTLs: the cached mapping table (CMT) with LRU
// replacement and dirty tracking, and the global translation directory (GTD)
// that locates translation pages in flash.
package mapping

import (
	"learnedftl/internal/nand"
)

// Entry is one cached LPN→PPN mapping.
type Entry struct {
	LPN   int64
	PPN   nand.PPN
	Dirty bool
}

// nilNode marks an absent link in an intrusive list; cleanNode in a node's
// dprev says the entry is clean (on no dirty chain).
const (
	nilNode   = int32(-1)
	cleanNode = int32(-2)
)

// cmtNode is one pooled slot: a mapping plus two pairs of intrusive links
// (indices into CMT.nodes, nilNode-terminated). prev/next thread the recency
// list; dprev/dnext thread the dirty chain of the entry's translation page.
// The dirty flag is dprev != cleanNode rather than a field of its own, which
// keeps the node at 32 bytes — two to a cache line, as before the chains.
type cmtNode struct {
	lpn          int64
	ppn          nand.PPN
	prev, next   int32
	dprev, dnext int32
}

func (nd *cmtNode) dirty() bool { return nd.dprev != cleanNode }

func (nd *cmtNode) entry() Entry { return Entry{LPN: nd.lpn, PPN: nd.ppn, Dirty: nd.dirty()} }

// CMT is the cached mapping table of DFTL (Gupta et al., ASPLOS'09): an LRU
// cache over individual page mappings. TPFTL and LearnedFTL reuse it with
// different capacities and write-back batching policies.
//
// The cache is a slice-backed intrusive LRU: nodes live in a preallocated
// pool and the recency list is threaded through pool indices. The dirty
// entries of each translation page are chained through the same pool, so
// the write-back of one translation page (CleanRange) visits exactly the
// entries it cleans instead of probing the page's whole LPN range.
//
// LPNs are found through an open-addressed table of pool indices, sized
// once from the capacity to stay at most half full: a multiplicative hash
// picks the home slot, collisions probe linearly, and a removal shifts the
// rest of its cluster back so no tombstone is ever left. A slot holds only
// the node index — the key is the node's own lpn — so the table costs four
// bytes a slot. No operation allocates in steady state: the table and the
// pool only grow if a caller holds more than capacity+1 entries, the
// per-page chain heads the first time an LPN beyond their reach turns dirty.
type CMT struct {
	cap   int
	nodes []cmtNode
	table []int32 // open-addressed LPN index: pool indices, nilNode when empty
	shift uint    // 64 - log2(len(table)): the hash keeps its top bits
	head  int32   // most recently used, nilNode when empty
	tail  int32   // least recently used, nilNode when empty
	free  int32   // free-list head threaded through next
	size  int
	dirty int

	tpEntries int64   // LPNs per translation page: the dirty chains' bucket width
	dirtyHead []int32 // per translation page, first node of its dirty chain
}

// NewCMT returns a CMT holding at most capacity entries, over the paper's
// 512-mapping translation pages. A non-positive capacity yields a cache
// that stores nothing (every lookup misses).
func NewCMT(capacity int) *CMT { return NewCMTFor(capacity, EntriesPerTransPage) }

// NewCMTFor is NewCMT for translation pages of entriesPerTP mappings (the
// schemes pass their Config.EntriesPerTP).
func NewCMTFor(capacity, entriesPerTP int) *CMT {
	if capacity < 0 {
		capacity = 0
	}
	c := &CMT{
		cap:       capacity,
		head:      nilNode,
		tail:      nilNode,
		free:      nilNode,
		tpEntries: int64(entriesPerTP),
	}
	// Callers may overshoot capacity by one entry before draining
	// NeedsEviction, hence the +1 slack in the pool and the table.
	c.nodes = make([]cmtNode, 0, capacity+1)
	c.resize(2 * (capacity + 1))
	return c
}

// resize replaces the table with an empty one of at least slots slots (a
// power of two) and re-enters every cached node.
func (c *CMT) resize(slots int) {
	bits := uint(1)
	for 1<<bits < slots {
		bits++
	}
	c.table = make([]int32, 1<<bits)
	c.shift = 64 - bits
	for i := range c.table {
		c.table[i] = nilNode
	}
	for n := c.tail; n != nilNode; n = c.nodes[n].prev {
		i, _ := c.probe(c.nodes[n].lpn)
		c.table[i] = n
	}
}

// home returns the slot lpn hashes to (Fibonacci hashing: the top bits of
// the product with 2^64/φ).
func (c *CMT) home(lpn int64) int {
	return int(uint64(lpn) * 0x9E3779B97F4A7C15 >> c.shift)
}

// probe walks lpn's probe sequence to its end: the slot holding the node
// that caches lpn, or — n == nilNode — the empty slot an insert of lpn
// takes. The table is never more than half full, so the walk ends.
func (c *CMT) probe(lpn int64) (slot int, n int32) {
	mask := len(c.table) - 1
	for i := c.home(lpn); ; i = (i + 1) & mask {
		n := c.table[i]
		if n == nilNode || c.nodes[n].lpn == lpn {
			return i, n
		}
	}
}

// find returns the node caching lpn, or nilNode.
func (c *CMT) find(lpn int64) int32 {
	_, n := c.probe(lpn)
	return n
}

// unindex takes node n out of the table and closes the gap: each later
// member of the cluster moves back into the hole if the hole lies on its
// own probe sequence, so every key stays reachable from its home slot.
func (c *CMT) unindex(n int32) {
	mask := len(c.table) - 1
	i := c.home(c.nodes[n].lpn)
	for c.table[i] != n {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; c.table[j] != nilNode; j = (j + 1) & mask {
		m := c.table[j]
		if (j-c.home(c.nodes[m].lpn))&mask >= (j-i)&mask {
			c.table[i] = m
			i = j
		}
	}
	c.table[i] = nilNode
}

// Cap returns the configured capacity in entries.
func (c *CMT) Cap() int { return c.cap }

// Len returns the number of cached entries.
func (c *CMT) Len() int { return c.size }

// DirtyLen returns the number of dirty entries.
func (c *CMT) DirtyLen() int { return c.dirty }

// alloc takes a node off the free list, growing the pool when exhausted.
func (c *CMT) alloc() int32 {
	if c.free != nilNode {
		n := c.free
		c.free = c.nodes[n].next
		return n
	}
	c.nodes = append(c.nodes, cmtNode{})
	return int32(len(c.nodes) - 1)
}

// unlink removes node n from the recency list (it stays in the pool).
func (c *CMT) unlink(n int32) {
	nd := &c.nodes[n]
	if nd.prev != nilNode {
		c.nodes[nd.prev].next = nd.next
	} else {
		c.head = nd.next
	}
	if nd.next != nilNode {
		c.nodes[nd.next].prev = nd.prev
	} else {
		c.tail = nd.prev
	}
}

// pushFront links node n as the most recently used.
func (c *CMT) pushFront(n int32) {
	nd := &c.nodes[n]
	nd.prev = nilNode
	nd.next = c.head
	if c.head != nilNode {
		c.nodes[c.head].prev = n
	}
	c.head = n
	if c.tail == nilNode {
		c.tail = n
	}
}

// setDirty brings node n's dirty state to want, linking it into or out of
// its translation page's dirty chain.
func (c *CMT) setDirty(n int32, want bool) {
	nd := &c.nodes[n]
	if nd.dirty() == want {
		return
	}
	if want {
		tp := int(nd.lpn / c.tpEntries)
		for tp >= len(c.dirtyHead) {
			c.dirtyHead = append(c.dirtyHead, nilNode)
		}
		nd.dprev = nilNode
		nd.dnext = c.dirtyHead[tp]
		if nd.dnext != nilNode {
			c.nodes[nd.dnext].dprev = n
		}
		c.dirtyHead[tp] = n
		c.dirty++
		return
	}
	if nd.dprev != nilNode {
		c.nodes[nd.dprev].dnext = nd.dnext
	} else {
		c.dirtyHead[nd.lpn/c.tpEntries] = nd.dnext
	}
	if nd.dnext != nilNode {
		c.nodes[nd.dnext].dprev = nd.dprev
	}
	nd.dprev = cleanNode
	c.dirty--
}

// Lookup returns the cached mapping for lpn and promotes it to MRU.
func (c *CMT) Lookup(lpn int64) (nand.PPN, bool) {
	n := c.find(lpn)
	if n == nilNode {
		return nand.InvalidPPN, false
	}
	if c.head != n {
		c.unlink(n)
		c.pushFront(n)
	}
	return c.nodes[n].ppn, true
}

// Peek returns the cached mapping without touching recency.
func (c *CMT) Peek(lpn int64) (Entry, bool) {
	n := c.find(lpn)
	if n == nilNode {
		return Entry{}, false
	}
	return c.nodes[n].entry(), true
}

// Contains reports whether lpn is cached, without touching recency.
func (c *CMT) Contains(lpn int64) bool { return c.find(lpn) != nilNode }

// Insert adds or updates a mapping as MRU. It does not evict; callers must
// drain NeedsEviction/EvictLRU so they can perform the flash write-back that
// eviction of a dirty entry requires.
func (c *CMT) Insert(lpn int64, ppn nand.PPN, dirty bool) {
	if c.cap <= 0 {
		return
	}
	slot, n := c.probe(lpn)
	if n != nilNode {
		c.nodes[n].ppn = ppn
		if c.head != n {
			c.unlink(n)
			c.pushFront(n)
		}
	} else {
		if 2*(c.size+1) > len(c.table) {
			c.resize(2 * len(c.table))
			slot, _ = c.probe(lpn)
		}
		n = c.alloc()
		c.nodes[n] = cmtNode{lpn: lpn, ppn: ppn, dprev: cleanNode}
		c.pushFront(n)
		c.table[slot] = n
		c.size++
	}
	c.setDirty(n, dirty)
}

// NeedsEviction reports whether the cache is over capacity.
func (c *CMT) NeedsEviction() bool { return c.size > c.cap }

// EvictLRU removes and returns the least recently used entry.
func (c *CMT) EvictLRU() (Entry, bool) {
	if c.tail == nilNode {
		return Entry{}, false
	}
	return c.removeNode(c.tail), true
}

// Remove drops lpn from the cache if present, returning the removed entry.
func (c *CMT) Remove(lpn int64) (Entry, bool) {
	n := c.find(lpn)
	if n == nilNode {
		return Entry{}, false
	}
	return c.removeNode(n), true
}

// removeNode unlinks n, returns its entry to the caller and the node to the
// free list.
func (c *CMT) removeNode(n int32) Entry {
	e := c.nodes[n].entry()
	c.setDirty(n, false)
	c.unlink(n)
	c.unindex(n)
	c.nodes[n].next = c.free
	c.free = n
	c.size--
	return e
}

// CleanRange clears the dirty flag of every cached entry with LPN in
// [lo, hi) and returns how many it cleared. The schemes call it with one
// translation page's range after persisting that page: the rewrite carried
// the current truth for the whole range, so its cached entries are clean.
// It walks the dirty chains of the pages the range touches, so it costs the
// entries cleaned, not the width of the range.
func (c *CMT) CleanRange(lo, hi int64) int {
	cleaned := 0
	for tp := lo / c.tpEntries; tp*c.tpEntries < hi && tp < int64(len(c.dirtyHead)); tp++ {
		for n := c.dirtyHead[tp]; n != nilNode; {
			nd := &c.nodes[n]
			next := nd.dnext
			if nd.lpn >= lo && nd.lpn < hi {
				c.setDirty(n, false)
				cleaned++
			}
			n = next
		}
	}
	return cleaned
}

// Export returns the cached entries in LRU→MRU order. Re-Inserting them in
// that order into a fresh CMT of the same capacity reproduces the cache —
// contents, dirty flags and recency — exactly (device snapshots).
func (c *CMT) Export() []Entry {
	out := make([]Entry, 0, c.size)
	for n := c.tail; n != nilNode; n = c.nodes[n].prev {
		out = append(out, c.nodes[n].entry())
	}
	return out
}

// RefreshRange rewrites the PPN of every cached entry with LPN in [lo, hi)
// from l2p, without recency or dirty changes: the fix-up after a collection
// moved much of that range. It is one pass over the pool in order, where
// an UpdatePPN per moved LPN probes the index at random, mostly to miss:
// the pass is the cheaper one also on the paper's 32 GiB device, whose
// cache holds seven times as many entries as a group has LPNs
// (BenchmarkCMTGroupFixup). The pass may rewrite a free node too, which no
// one reads: alloc overwrites a node whole.
func (c *CMT) RefreshRange(lo, hi int64, l2p L2P) {
	span := uint64(hi - lo)
	for i := range c.nodes {
		// One unsigned compare, which almost no entry passes, so the
		// branch predicts; lpn >= lo first would branch at random and
		// cost the pass twice its time.
		if nd := &c.nodes[i]; uint64(nd.lpn-lo) < span {
			nd.ppn = l2p.Get(nd.lpn)
		}
	}
}

// UpdatePPN rewrites the PPN of a cached entry without recency or dirty
// changes (GC relocation fix-up). Returns false if lpn is not cached.
func (c *CMT) UpdatePPN(lpn int64, ppn nand.PPN) bool {
	n := c.find(lpn)
	if n == nilNode {
		return false
	}
	c.nodes[n].ppn = ppn
	return true
}
