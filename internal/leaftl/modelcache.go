package leaftl

// nilNode marks an absent link in the model cache's intrusive LRU list.
const nilNode = int32(-1)

// mcNode is one pooled LRU slot: a (tpn, size) pair plus intrusive
// prev/next links (indices into modelCache.nodes, nilNode-terminated).
type mcNode struct {
	tpn        int
	size       int
	prev, next int32
}

// modelCache is LeaFTL's DRAM model cache: an LRU over translation-page
// numbers whose byte budget equals the CMT budget of DFTL/TPFTL (paper
// §IV-A, "we set the capacity of LeaFTL's model cache to have the same space
// overhead as the CMT"). Evicted models are clean (segments are persisted to
// flash at flush time), so eviction is free; a miss costs one translation
// read to load the segments back.
//
// Like mapping.CMT, the cache is a slice-backed intrusive LRU with a node
// pool: Contains hits and Insert updates perform zero heap allocations, and
// evicted nodes are recycled through a free list.
type modelCache struct {
	budget int
	used   int
	nodes  []mcNode
	idx    []int32 // per translation page: its node, nilNode when not cached
	head   int32   // most recently used, nilNode when empty
	tail   int32   // least recently used, nilNode when empty
	free   int32   // free-list head threaded through next
	size   int
}

// newModelCache returns an empty cache of the given byte budget over
// translation pages 0..numTPNs-1.
func newModelCache(budgetBytes, numTPNs int) *modelCache {
	c := &modelCache{
		budget: budgetBytes,
		idx:    make([]int32, numTPNs),
		head:   nilNode,
		tail:   nilNode,
		free:   nilNode,
	}
	for i := range c.idx {
		c.idx[i] = nilNode
	}
	return c
}

func (c *modelCache) alloc() int32 {
	if c.free != nilNode {
		n := c.free
		c.free = c.nodes[n].next
		return n
	}
	c.nodes = append(c.nodes, mcNode{})
	return int32(len(c.nodes) - 1)
}

func (c *modelCache) unlink(n int32) {
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

func (c *modelCache) pushFront(n int32) {
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

// Contains promotes and reports presence.
func (c *modelCache) Contains(tpn int) bool {
	n := c.idx[tpn]
	if n == nilNode {
		return false
	}
	if c.head != n {
		c.unlink(n)
		c.pushFront(n)
	}
	return true
}

// Insert adds or resizes the model for tpn and evicts LRU models until the
// budget holds.
func (c *modelCache) Insert(tpn, size int) {
	if n := c.idx[tpn]; n != nilNode {
		nd := &c.nodes[n]
		c.used += size - nd.size
		nd.size = size
		if c.head != n {
			c.unlink(n)
			c.pushFront(n)
		}
	} else {
		n := c.alloc()
		c.nodes[n].tpn = tpn
		c.nodes[n].size = size
		c.pushFront(n)
		c.idx[tpn] = n
		c.size++
		c.used += size
	}
	for c.used > c.budget && c.size > 1 {
		n := c.tail
		nd := &c.nodes[n]
		c.used -= nd.size
		c.idx[nd.tpn] = nilNode
		c.unlink(n)
		nd.next = c.free
		c.free = n
		c.size--
	}
}

// Resize updates the stored size of tpn if cached (model grew at flush).
func (c *modelCache) Resize(tpn, size int) {
	if n := c.idx[tpn]; n != nilNode {
		nd := &c.nodes[n]
		c.used += size - nd.size
		nd.size = size
	}
}

// mcState is one (tpn, size) pair of the cache's export (device snapshots).
type mcState struct{ tpn, size int }

// exportLRU returns the cached models in LRU→MRU order. Re-Inserting them
// in that order into a fresh cache of the same budget reproduces contents,
// charged bytes and recency exactly.
func (c *modelCache) exportLRU() []mcState {
	out := make([]mcState, 0, c.size)
	for n := c.tail; n != nilNode; n = c.nodes[n].prev {
		out = append(out, mcState{tpn: c.nodes[n].tpn, size: c.nodes[n].size})
	}
	return out
}

// Len returns the number of cached models.
func (c *modelCache) Len() int { return c.size }

// Used returns the bytes currently charged.
func (c *modelCache) Used() int { return c.used }
