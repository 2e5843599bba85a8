package persist

import (
	"bytes"
	"hash/crc32"
	"math"
	"path/filepath"
	"testing"

	"learnedftl/internal/mapping"
	"learnedftl/internal/nand"
)

// mustFlash is the test-only shorthand for geometries built inline.
func mustFlash(g nand.Geometry) *nand.Flash {
	fl, err := nand.NewFlash(g, nand.DefaultTiming())
	if err != nil {
		panic(err)
	}
	return fl
}

// crc32Sum is the snapshot trailer checksum in wire order.
func crc32Sum(buf []byte) [4]byte {
	sum := crc32.ChecksumIEEE(buf)
	return [4]byte{byte(sum), byte(sum >> 8), byte(sum >> 16), byte(sum >> 24)}
}

func TestCodecRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.U64(0)
	e.U64(1 << 62)
	e.I64(-1)
	e.I64(math.MinInt64)
	e.Int(42)
	e.Bool(true)
	e.Bool(false)
	e.F64(-0.0)
	e.F64(math.Inf(1))
	e.F64(1.0 / 3.0)
	e.Blob([]byte{1, 2, 3})
	e.Str("hello|world")
	e.Ints([]int{-5, 0, 7})

	d := NewDecoder(e.Data())
	if d.U64() != 0 || d.U64() != 1<<62 || d.I64() != -1 || d.I64() != math.MinInt64 || d.Int() != 42 {
		t.Fatal("integer round-trip failed")
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("bool round-trip failed")
	}
	if math.Float64bits(d.F64()) != math.Float64bits(-0.0) {
		t.Fatal("negative zero bits lost")
	}
	if !math.IsInf(d.F64(), 1) || d.F64() != 1.0/3.0 {
		t.Fatal("float round-trip failed")
	}
	if !bytes.Equal(d.Blob(), []byte{1, 2, 3}) || d.Str() != "hello|world" {
		t.Fatal("blob/string round-trip failed")
	}
	got := d.Ints()
	if len(got) != 3 || got[0] != -5 || got[1] != 0 || got[2] != 7 {
		t.Fatalf("ints round-trip = %v", got)
	}
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", d.Err(), d.Remaining())
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{0x01})
	_ = d.U64()
	_ = d.F64() // truncated
	if d.Err() == nil {
		t.Fatal("truncated read did not latch an error")
	}
	if v := d.U64(); v != 0 {
		t.Fatalf("read after error returned %d, want 0", v)
	}
}

// fakeDevice exercises the Snapshot/Restore container without an FTL.
type fakeDevice struct {
	name  string
	value int64
}

func (f *fakeDevice) Name() string         { return f.name }
func (f *fakeDevice) SaveState(e *Encoder) { e.I64(f.value) }
func (f *fakeDevice) LoadState(d *Decoder) error {
	f.value = d.I64()
	return d.Err()
}

func TestSnapshotContainerVerification(t *testing.T) {
	src := &fakeDevice{name: "dev", value: 1234}
	snap := Snapshot(src, "fp-1")

	dst := &fakeDevice{name: "dev"}
	if err := Restore(dst, "fp-1", snap); err != nil {
		t.Fatal(err)
	}
	if dst.value != 1234 {
		t.Fatalf("restored value = %d", dst.value)
	}
	if err := Restore(&fakeDevice{name: "other"}, "fp-1", snap); err == nil {
		t.Fatal("wrong scheme name accepted")
	}
	if err := Restore(&fakeDevice{name: "dev"}, "fp-2", snap); err == nil {
		t.Fatal("wrong fingerprint accepted")
	}
	bad := append([]byte(nil), snap...)
	bad[len(bad)-1] ^= 0xff
	if err := Restore(&fakeDevice{name: "dev"}, "fp-1", bad); err == nil {
		t.Fatal("corrupt checksum accepted")
	}
	if err := Restore(&fakeDevice{name: "dev"}, "fp-1", snap[:2]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

func TestCMTSectionPreservesRecencyAndDirty(t *testing.T) {
	src := mapping.NewCMT(4)
	src.Insert(10, 100, false)
	src.Insert(20, 200, true)
	src.Insert(30, 300, false)
	src.Lookup(10) // promote 10 to MRU: recency order 20, 30, 10

	e := NewEncoder()
	SaveCMT(e, src)
	dst := mapping.NewCMT(4)
	if err := LoadCMT(NewDecoder(e.Data()), dst, 100); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 3 || dst.DirtyLen() != 1 {
		t.Fatalf("len=%d dirty=%d", dst.Len(), dst.DirtyLen())
	}
	want := src.Export()
	got := dst.Export()
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("recency order diverged at %d: %+v vs %+v", i, want[i], got[i])
		}
	}
	// Capacity mismatch is rejected.
	if err := LoadCMT(NewDecoder(e.Data()), mapping.NewCMT(2), 100); err == nil {
		t.Fatal("over-capacity CMT section accepted")
	}
}

func TestScanOOBRebuildsMappingsAndChargesReads(t *testing.T) {
	g := nand.Geometry{Channels: 2, Ways: 1, Planes: 1, BlocksPerUnit: 2, PagesPerBlock: 4, PageSize: 4096}
	fl := mustFlash(g)
	var now nand.Time
	// Chip 0, block 0: two data pages (one later invalidated) + one
	// translation page. Chip 1 stays empty.
	mustProgram := func(p nand.PPN, oob nand.OOB) {
		done, err := fl.Program(p, oob, now, nand.OpHostData)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	mustProgram(0, nand.OOB{Key: 7})
	mustProgram(1, nand.OOB{Key: 9})
	mustProgram(2, nand.OOB{Key: 3, Trans: true})
	if err := fl.Invalidate(1); err != nil {
		t.Fatal(err)
	}
	start := fl.MaxChipBusy()
	res := ScanOOB(fl, start)
	if res.Scanned != 3 {
		t.Fatalf("scanned %d pages, want 3 (stale pages are read too)", res.Scanned)
	}
	if len(res.Data) != 1 || res.Data[0] != (ScanEntry{Key: 7, PPN: 0}) {
		t.Fatalf("data mappings = %+v", res.Data)
	}
	if len(res.Trans) != 1 || res.Trans[0] != (ScanEntry{Key: 3, PPN: 2}) {
		t.Fatalf("trans mappings = %+v", res.Trans)
	}
	wantDone := start + 3*fl.Timing().ReadLatency
	if res.Done != wantDone {
		t.Fatalf("mount done = %d, want %d (3 serialized reads on one chip)", res.Done, wantDone)
	}
	if got := fl.Counters().Reads[nand.OpMount]; got != 3 {
		t.Fatalf("mount reads counted = %d, want 3", got)
	}
}

// TestRestoreVersionWindow: Restore accepts exactly the current format
// version. Snapshots of the retired version-1 and version-2 layouts are
// rejected with an error, which Cache turns into a cold warm-up.
func TestRestoreVersionWindow(t *testing.T) {
	body := func(version uint64) []byte {
		e := NewEncoder()
		e.Str(magic)
		e.U64(version)
		e.Str("dev")
		e.Str("fp")
		e.I64(77) // fakeDevice body (version-independent)
		buf := e.Data()
		sum := crc32Sum(buf)
		return append(buf, sum[:]...)
	}
	for _, tc := range []struct {
		version uint64
		ok      bool
	}{{0, false}, {1, false}, {2, false}, {Version, true}, {Version + 1, false}} {
		dst := &fakeDevice{name: "dev"}
		err := Restore(dst, "fp", body(tc.version))
		if (err == nil) != tc.ok {
			t.Fatalf("Restore of version %d: err=%v, want ok=%v", tc.version, err, tc.ok)
		}
		if tc.ok && dst.value != 77 {
			t.Fatalf("version %d restored value %d", tc.version, dst.value)
		}
	}
}

// hugeCount is a count no stream can back: a decoder that sized an
// allocation from it would panic with "makeslice: len out of range".
const hugeCount = uint64(1) << 62

// TestDecodersRejectOversizedCounts hand-builds streams whose element counts
// exceed the bytes behind them — one per count-prefixed section of LoadFlash
// and LoadCMT — plus a cached LPN outside the logical space. Each must come
// back as an error; none may panic or spin.
func TestDecodersRejectOversizedCounts(t *testing.T) {
	g := nand.Geometry{Channels: 2, Ways: 1, Planes: 1, BlocksPerUnit: 2, PagesPerBlock: 4, PageSize: 4096}
	words := make([]uint64, (g.TotalPages()+63)/64)
	// flashUpTo encodes a well-formed flash section up to (excluding) the
	// named count, then the oversized count in its place.
	flashUpTo := func(section string) []byte {
		e := NewEncoder()
		e.Words(words)
		e.Words(words)
		if section == "keys" {
			e.U64(hugeCount)
			return e.Data()
		}
		e.U64(uint64(g.TotalPages()))
		for p := 0; p < g.TotalPages(); p++ {
			e.I64(0)
		}
		if section == "blocks" {
			e.U64(hugeCount)
			return e.Data()
		}
		e.U64(uint64(g.TotalBlocks()))
		for b := 0; b < g.TotalBlocks(); b++ {
			e.I64(0)
			e.I64(0)
		}
		if section == "chips" {
			e.U64(hugeCount)
			return e.Data()
		}
		e.U64(uint64(g.Chips()))
		for c := 0; c < g.Chips(); c++ {
			e.I64(0)
		}
		saveCounters(e, nand.OpCounters{})
		saveCounters(e, nand.OpCounters{})
		e.U64(hugeCount) // "reads"
		return e.Data()
	}
	cmt := func(n uint64, lpns ...int64) []byte {
		e := NewEncoder()
		e.U64(n)
		for _, l := range lpns {
			e.I64(l)
			e.I64(7)
			e.Bool(false)
		}
		return e.Data()
	}
	for _, tc := range []struct {
		name string
		load func() error
	}{
		{"flash keys", func() error { return LoadFlash(NewDecoder(flashUpTo("keys")), mustFlash(g)) }},
		{"flash blocks", func() error { return LoadFlash(NewDecoder(flashUpTo("blocks")), mustFlash(g)) }},
		{"flash chips", func() error { return LoadFlash(NewDecoder(flashUpTo("chips")), mustFlash(g)) }},
		{"flash reads", func() error { return LoadFlash(NewDecoder(flashUpTo("reads")), mustFlash(g)) }},
		{"cmt count", func() error { return LoadCMT(NewDecoder(cmt(hugeCount)), mapping.NewCMT(4), 100) }},
		{"cmt count, capacity 0", func() error { return LoadCMT(NewDecoder(cmt(hugeCount)), mapping.NewCMT(0), 100) }},
		{"cmt lpn past the logical space", func() error { return LoadCMT(NewDecoder(cmt(1, 100)), mapping.NewCMT(4), 100) }},
		{"cmt negative lpn", func() error { return LoadCMT(NewDecoder(cmt(1, -1)), mapping.NewCMT(4), 100) }},
	} {
		if err := tc.load(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The same builder with a sane tail decodes: the cases above fail on the
	// count, not on the prefix.
	if err := LoadCMT(NewDecoder(cmt(1, 99)), mapping.NewCMT(4), 100); err != nil {
		t.Fatalf("well-formed CMT section rejected: %v", err)
	}
}

// TestLoadersRejectOutOfDeviceMappings: the L2P and GTD loaders accept
// exactly [InvalidPPN, totalPages) and LoadFlash exactly the packed keys that
// fit 32 bits. Anything else is an error at load, not an index out of range on
// the first read or a silent truncation into the narrow tables.
func TestLoadersRejectOutOfDeviceMappings(t *testing.T) {
	const totalPages = 16
	l2p := func(v int64) error {
		e := NewEncoder()
		e.U64(2)
		e.I64(3)
		e.I64(v)
		m := mapping.NewL2P(2)
		if err := LoadL2P(NewDecoder(e.Data()), m, totalPages); err != nil {
			return err
		}
		if m.Get(0) != 3 || m.Get(1) != nand.PPN(v) {
			t.Fatalf("L2P loaded (%d, %d), want (3, %d)", m.Get(0), m.Get(1), v)
		}
		return nil
	}
	gtd := func(v int64) error {
		e := NewEncoder()
		e.U64(1)
		e.I64(v)
		return LoadGTD(NewDecoder(e.Data()), mapping.NewGTD(1), totalPages)
	}
	g := nand.Geometry{Channels: 2, Ways: 1, Planes: 1, BlocksPerUnit: 2, PagesPerBlock: 4, PageSize: 4096}
	key := func(v int64) error {
		e := NewEncoder()
		SaveFlash(e, mustFlash(g))
		// Page 0's key is the first varint after the two one-word bitmaps
		// (1+8 bytes each) and the key count; an erased page encodes as 0x00.
		buf := e.Data()
		off := 2*9 + 1
		e2 := NewEncoder()
		e2.I64(v)
		buf = append(append(append([]byte(nil), buf[:off]...), e2.Data()...), buf[off+1:]...)
		return LoadFlash(NewDecoder(buf), mustFlash(g))
	}
	for _, tc := range []struct {
		name string
		err  error
		ok   bool
	}{
		{"L2P unmapped", l2p(-1), true},
		{"L2P last page", l2p(totalPages - 1), true},
		{"L2P = totalPages", l2p(totalPages), false},
		{"L2P below InvalidPPN", l2p(-2), false},
		{"L2P past 32 bits", l2p(1<<32 + 3), false},
		{"GTD unwritten", gtd(-1), true},
		{"GTD last page", gtd(totalPages - 1), true},
		{"GTD = 1<<40", gtd(1 << 40), false},
		{"GTD below InvalidPPN", gtd(-2), false},
		{"OOB key 0", key(0), true},
		{"OOB key 2^32-1", key(math.MaxUint32), true},
		{"OOB key 1<<33", key(1 << 33), false},
		{"OOB key negative", key(-2), false},
	} {
		if (tc.err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, tc.err, tc.ok)
		}
	}
}

func TestCacheLoadStoreStats(t *testing.T) {
	c, err := NewCache(filepath.Join(t.TempDir(), "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Load("k"); ok {
		t.Fatal("empty cache hit")
	}
	c.Store("k", []byte("payload"))
	data, ok := c.Load("k")
	if !ok || string(data) != "payload" {
		t.Fatalf("load = %q, %v", data, ok)
	}
	// A loaded entry is not a hit until the caller confirms the restore.
	if st := c.Stats(); st.Hits != 0 {
		t.Fatalf("hit counted before restore confirmation: %+v", st)
	}
	c.NoteRestored(500)
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Stores != 1 || st.ProgramsSaved != 500 {
		t.Fatalf("stats = %+v", st)
	}
	// A loaded-but-unusable entry (corruption, config drift) is a miss.
	c.NoteUnusable()
	if st := c.Stats(); st.Misses != 2 || st.Hits != 1 {
		t.Fatalf("unusable entry not counted as miss: %+v", st)
	}
	// Distinct keys map to distinct files even with hostile characters.
	c.Store("a/b|c d", []byte("x"))
	if data, ok := c.Load("a/b|c d"); !ok || string(data) != "x" {
		t.Fatal("hostile key round-trip failed")
	}
}

// TestCacheMissesOtherBuilds: entries are keyed by the build that wrote
// them, so over one directory an entry another build stored is a miss and
// each build loads only its own.
func TestCacheMissesOtherBuilds(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.build) != 64 {
		t.Fatalf("build id %q is not a SHA-256", c.build)
	}
	other := &Cache{dir: dir, build: "another build"}
	other.Store("k", []byte("theirs"))
	if _, ok := c.Load("k"); ok {
		t.Fatal("loaded an entry another build stored")
	}
	c.Store("k", []byte("ours"))
	for _, tc := range []struct {
		c    *Cache
		want string
	}{{c, "ours"}, {other, "theirs"}} {
		if data, ok := tc.c.Load("k"); !ok || string(data) != tc.want {
			t.Fatalf("build %.8s loaded %q, %v; want its own %q", tc.c.build, data, ok, tc.want)
		}
	}
}
