package persist

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// CacheStats summarizes a Cache's traffic. ProgramsSaved prices hits in
// simulated flash programs: on every hit the caller credits the restored
// device's lifetime program count — the warm-up work the checkpoint
// avoided re-simulating — so the speedup is asserted in flash-op units
// rather than wall-clock.
type CacheStats struct {
	Hits          int64
	Misses        int64
	Stores        int64
	ProgramsSaved int64
}

// Cache is the warm-checkpoint store: a directory of snapshot files keyed
// by an opaque identity string (scheme, geometry, config and warm-up spec
// hashed together) and by the build that wrote them. Concurrent sweep cells
// may load and store the same key; stores write via temp-file + rename so
// readers never observe a partial file, and because snapshots are
// deterministic, racing stores of one key write identical bytes.
type Cache struct {
	dir   string
	build string

	mu    sync.Mutex
	stats CacheStats
}

// buildID is the SHA-256 of the running executable, read once per process.
// Go builds are reproducible, so binaries built from one tree share it and
// a change to shipped code changes it. A binary stamped with VCS state (go
// build in a checkout) changes with every commit too: a cold warm-up, never
// a device that another model warmed.
var buildID = sync.OnceValues(func() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
})

// NewCache opens (creating if needed) a checkpoint directory whose entries
// are keyed by the running build.
func NewCache(dir string) (*Cache, error) {
	build, err := buildID()
	if err != nil {
		return nil, fmt.Errorf("persist: checkpoint build id: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: checkpoint dir: %w", err)
	}
	return &Cache{dir: dir, build: build}, nil
}

// path maps a key to its file: the build id and the key are hashed
// together, so arbitrary config strings (spaces, slashes) become safe
// fixed-length names and an entry another build wrote is never found.
func (c *Cache) path(key string) string {
	sum := sha256.Sum256([]byte(c.build + "|" + key))
	return filepath.Join(c.dir, hex.EncodeToString(sum[:])+".ckpt")
}

// Load returns the snapshot stored under key. An absent entry counts as a
// miss immediately; a present entry is NOT yet a hit — only the caller
// knows whether the bytes actually restore, so it reports the outcome via
// NoteRestored (hit) or NoteUnusable (corrupt file that fell back to a
// cold warm-up: a miss).
func (c *Cache) Load(key string) ([]byte, bool) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		c.mu.Lock()
		c.stats.Misses++
		c.mu.Unlock()
		return nil, false
	}
	return data, true
}

// NoteRestored records one successful restore from a loaded snapshot: a
// hit, plus the simulated flash programs the hit avoided re-simulating.
func (c *Cache) NoteRestored(programsSaved int64) {
	c.mu.Lock()
	c.stats.Hits++
	c.stats.ProgramsSaved += programsSaved
	c.mu.Unlock()
}

// NoteUnusable records a loaded snapshot that failed verification
// (corruption, config drift): the caller fell back to a cold warm-up, so it
// counts as a miss.
func (c *Cache) NoteUnusable() {
	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
}

// Store writes a snapshot under key atomically. Errors are swallowed: a
// failed store only costs a future cold warm-up.
func (c *Cache) Store(key string, data []byte) {
	dst := c.path(key)
	tmp, err := os.CreateTemp(c.dir, ".ckpt-*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
		return
	}
	c.mu.Lock()
	c.stats.Stores++
	c.mu.Unlock()
}

// Stats returns a copy of the cache's counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
