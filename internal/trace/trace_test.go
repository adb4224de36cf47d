package trace

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"mumak/internal/pmem"
)

func recordedRun(f func(e *pmem.Engine)) (*Trace, *pmem.Engine, *pmem.Image) {
	e := pmem.NewEngine(pmem.Options{PoolSize: 1 << 14})
	base := e.PrefixImage()
	rec := NewRecorder()
	e.AttachHook(rec)
	f(e)
	return &rec.T, e, base
}

func TestRecorderCapturesStream(t *testing.T) {
	tr, _, _ := recordedRun(func(e *pmem.Engine) {
		e.Store64(0, 1)
		e.CLWB(0)
		e.SFence()
		e.Load64(0) // not recorded by default
	})
	if tr.Len() != 3 {
		t.Fatalf("trace length %d, want 3", tr.Len())
	}
	wantOps := []pmem.Opcode{pmem.OpStore, pmem.OpCLWB, pmem.OpSFence}
	for i, op := range wantOps {
		if tr.Records[i].Op != op {
			t.Errorf("record %d op = %v, want %v", i, tr.Records[i].Op, op)
		}
	}
	if got := tr.Payload(&tr.Records[0]); len(got) != 8 || got[0] != 1 {
		t.Errorf("store payload = %v", got)
	}
	if tr.Records[1].Addr%pmem.CacheLineSize != 0 {
		t.Error("flush address not line-aligned")
	}
}

func TestRecorderLoadsOptIn(t *testing.T) {
	e := pmem.NewEngine(pmem.Options{PoolSize: 1 << 12})
	rec := NewRecorder()
	rec.RecordLoads = true
	e.AttachHook(rec)
	e.Load64(0)
	if rec.T.Len() != 1 || rec.T.Records[0].Op != pmem.OpLoad {
		t.Fatalf("load not recorded: %+v", rec.T.Records)
	}
}

func TestSplitUnitsRespectsAtomicSlots(t *testing.T) {
	tr, _, _ := recordedRun(func(e *pmem.Engine) {
		data := make([]byte, 20)
		for i := range data {
			data[i] = byte(i + 1)
		}
		e.Store(5, data) // spans slots [0,8) [8,16) [16,24) [24,32)
	})
	units := splitUnits(tr, 0)
	if len(units) != 4 {
		t.Fatalf("got %d units, want 4: %+v", len(units), units)
	}
	wantAddrs := []uint64{5, 8, 16, 24}
	wantLens := []int{3, 8, 8, 1}
	for i, u := range units {
		if u.Addr != wantAddrs[i] || len(u.Data) != wantLens[i] {
			t.Errorf("unit %d = (%d,%d), want (%d,%d)", i, u.Addr, len(u.Data), wantAddrs[i], wantLens[i])
		}
	}
}

func TestCursorCertainTracksFencedData(t *testing.T) {
	tr, _, base := recordedRun(func(e *pmem.Engine) {
		e.Store64(0, 1)
		e.CLWB(0)
		e.Store64(64, 2) // never flushed
		e.SFence()
	})
	c := NewCursor(tr, base)
	c.SeekTo(tr.Len())
	img := c.Certain()
	if got := le64(img.Bytes()[0:]); got != 1 {
		t.Errorf("fenced store not certain: %d", got)
	}
	if got := le64(img.Bytes()[64:]); got != 0 {
		t.Errorf("unflushed store became certain: %d", got)
	}
	unc := c.Uncertain()
	if len(unc) != 1 || unc[0].Addr != 64 {
		t.Errorf("uncertain set: %+v", unc)
	}
}

func TestCursorCLFlushIsSynchronous(t *testing.T) {
	tr, _, base := recordedRun(func(e *pmem.Engine) {
		e.Store64(0, 7)
		e.CLFlush(0)
	})
	c := NewCursor(tr, base)
	c.SeekTo(tr.Len())
	if got := le64(c.Certain().Bytes()[0:]); got != 7 {
		t.Errorf("clflush not certain: %d", got)
	}
	if len(c.Uncertain()) != 0 {
		t.Errorf("uncertain after clflush: %+v", c.Uncertain())
	}
}

func TestCursorMaterializeSubset(t *testing.T) {
	tr, _, base := recordedRun(func(e *pmem.Engine) {
		e.Store64(0, 1)
		e.CLWB(0)
		e.Store64(64, 2)
		e.CLWB(64)
		// no fence: both in flight
	})
	c := NewCursor(tr, base)
	c.SeekTo(tr.Len())
	unc := c.Uncertain()
	if len(unc) != 2 {
		t.Fatalf("uncertain = %+v, want 2 units", unc)
	}
	img := c.Materialize(unc, func(i int) bool { return i == 1 })
	if le64(img.Bytes()[0:]) != 0 || le64(img.Bytes()[64:]) != 2 {
		t.Errorf("subset image: %d %d", le64(img.Bytes()[0:]), le64(img.Bytes()[64:]))
	}
}

func TestCursorOverwriteOrder(t *testing.T) {
	tr, _, base := recordedRun(func(e *pmem.Engine) {
		e.Store64(0, 1)
		e.Store64(0, 2) // dirty overwrite
	})
	c := NewCursor(tr, base)
	c.SeekTo(tr.Len())
	unc := c.Uncertain()
	if len(unc) != 2 {
		t.Fatalf("uncertain = %+v", unc)
	}
	img := c.PrefixImage()
	if got := le64(img.Bytes()[0:]); got != 2 {
		t.Errorf("prefix image lost overwrite order: %d", got)
	}
}

// Property: for a random instruction mix, the cursor's prefix image at
// the end of the trace equals the engine's own PrefixImage.
func TestPropertyCursorPrefixMatchesEngine(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := pmem.NewEngine(pmem.Options{PoolSize: 1 << 13})
		base := e.PrefixImage()
		rec := NewRecorder()
		e.AttachHook(rec)
		slots := uint64(e.Size() / 8)
		for i := 0; i < int(n)+5; i++ {
			addr := (rng.Uint64() % slots) * 8
			switch rng.Intn(7) {
			case 0, 1:
				e.Store64(addr, rng.Uint64())
			case 2:
				e.NTStore64(addr, rng.Uint64())
			case 3:
				e.CLWB(addr)
			case 4:
				e.CLFlushOpt(addr)
			case 5:
				e.CLFlush(addr)
			case 6:
				e.SFence()
			}
		}
		c := NewCursor(&rec.T, base)
		c.SeekTo(rec.T.Len())
		return bytes.Equal(c.PrefixImage().Bytes(), e.PrefixImage().Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestCursorImagesAreSnapshots: every image a cursor returns is a
// read-only snapshot that shares pages with the cursor and its siblings.
// An image from Certain or Materialize keeps its bytes and its hash
// while the cursor steps on, while other Materialize calls run, and
// while engines built from it write concurrently, as Witcher's checkers
// do. Materialize never writes the cursor's own certain state: the
// cursor's images stay those of a twin cursor that materialises nothing.
func TestCursorImagesAreSnapshots(t *testing.T) {
	const size = 1 << 15
	rng := rand.New(rand.NewSource(17))
	e := pmem.NewEngine(pmem.Options{PoolSize: size})
	base := e.PrefixImage()
	rec := NewRecorder()
	e.AttachHook(rec)
	for i := 0; i < 200; i++ {
		addr := (rng.Uint64() % (size / 8)) * 8
		switch rng.Intn(6) {
		case 0, 1:
			e.Store64(addr, rng.Uint64())
		case 2:
			e.NTStore64(addr, rng.Uint64())
		case 3:
			e.CLWB(addr)
		case 4:
			e.CLFlushOpt(addr)
		case 5:
			e.SFence()
		}
	}

	type snapshot struct {
		img  *pmem.Image
		want []byte
		hash uint64
	}
	var snaps []snapshot
	keep := func(img *pmem.Image, want []byte) {
		snaps = append(snaps, snapshot{img, want, img.Hash()})
	}
	c, twin := NewCursor(&rec.T, base), NewCursor(&rec.T, base)
	for c.Step() {
		twin.Step()
		certain := c.Certain()
		keep(certain, certain.Bytes())
		uncertain := c.Uncertain()
		for parity := 0; parity < 2; parity++ {
			kept := func(i int) bool { return i%2 == parity }
			want := certain.Bytes()
			for i, u := range uncertain {
				if kept(i) {
					copy(want[u.Addr:], u.Data)
				}
			}
			img := c.Materialize(uncertain, kept)
			if !bytes.Equal(img.Bytes(), want) {
				t.Fatalf("record %d: Materialize differs from the certain image overlaid with the kept units", c.Pos())
			}
			keep(img, want)
		}
		if got, want := c.Certain(), twin.Certain(); got.Hash() != want.Hash() || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("record %d: Materialize changed the cursor's certain state", c.Pos())
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := w; i < len(snaps); i += 4 {
				eng := pmem.NewEngineFromImage(pmem.Options{}, snaps[i].img)
				for j := 0; j < 8; j++ {
					addr := (rng.Uint64() % (size / 8)) * 8
					if j%2 == 0 {
						eng.Store64(addr, rng.Uint64())
					} else {
						eng.NTStore64(addr, rng.Uint64())
					}
				}
			}
		}()
	}
	wg.Wait()

	for i, s := range snaps {
		got := s.img.Bytes()
		if !bytes.Equal(got, s.want) || s.img.Hash() != s.hash {
			t.Fatalf("snapshot %d of %d changed after it was taken", i, len(snaps))
		}
		if pmem.ContentHash(got) != s.hash {
			t.Fatalf("snapshot %d: hash %#x is not the content hash of its bytes", i, s.hash)
		}
	}
}

// The cursor freezes its certain engine without a fold, and so does
// Materialize's engine. Each image hashes its pages when asked, and an
// engine restarted from one hashes from scratch at its first fold; both
// must give the content hash of the bytes. The cursor's prefix image
// must also hash like the recording engine's view after the same
// record.
func TestCursorImageHashesMatchContent(t *testing.T) {
	const size = 1 << 15
	rng := rand.New(rand.NewSource(23))
	e := pmem.NewEngine(pmem.Options{PoolSize: size})
	base := e.PrefixImage()
	rec := NewRecorder()
	e.AttachHook(rec)
	viewHash := []uint64{e.PrefixImageHash()}
	for i := 0; i < 200; i++ {
		addr := (rng.Uint64() % (size / 8)) * 8
		switch rng.Intn(6) {
		case 0, 1:
			e.Store64(addr, rng.Uint64())
		case 2:
			e.NTStore64(addr, rng.Uint64())
		case 3:
			e.CLWB(addr)
		case 4:
			e.FAA64(addr, rng.Uint64())
		case 5:
			e.SFence()
		}
		viewHash = append(viewHash, e.PrefixImageHash())
	}
	check := func(img *pmem.Image, what string, pos int) {
		t.Helper()
		want := pmem.ContentHash(img.Bytes())
		if got := img.Hash(); got != want {
			t.Fatalf("record %d: %s image hash %#x, content hash %#x", pos, what, got, want)
		}
		eng := pmem.NewEngineFromImage(pmem.Options{}, img)
		if got := eng.PrefixImageHash(); got != want {
			t.Fatalf("record %d: an engine restarted from the %s image folds %#x, content hash %#x", pos, what, got, want)
		}
		eng.Store64((rng.Uint64()%(size/8))*8, rng.Uint64())
		if got, want := eng.PrefixImageHash(), pmem.ContentHash(eng.PrefixImage().Bytes()); got != want {
			t.Fatalf("record %d: after a store, an engine restarted from the %s image folds %#x, content hash %#x", pos, what, got, want)
		}
	}
	c := NewCursor(&rec.T, base)
	for c.Step() {
		check(c.Certain(), "certain", c.Pos())
		uncertain := c.Uncertain()
		check(c.Materialize(uncertain, func(i int) bool { return i%2 == 0 }), "materialised", c.Pos())
		prefix := c.PrefixImage()
		check(prefix, "prefix", c.Pos())
		if got, want := prefix.Hash(), viewHash[c.Pos()]; got != want {
			t.Fatalf("record %d: the cursor's prefix image hashes %#x, the engine's view %#x", c.Pos(), got, want)
		}
	}
}

func le64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}
