package checkpoint

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"helmsim/internal/quant"
)

// packedFixture writes a v2 checkpoint holding one small raw record and
// one 4-bit record of n elements (groups of 64), and returns its path.
func packedFixture(tb testing.TB, n int) string {
	tb.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "packed", 2)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(rng.NormFloat64())
	}
	if err := w.WriteRaw("raw", vals[:min(n, 50)]); err != nil {
		tb.Fatal(err)
	}
	qt, err := quant.Quantize(vals, quant.Default())
	if err != nil {
		tb.Fatal(err)
	}
	if err := w.WriteQuantized("w", qt); err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(tb.TempDir(), "packed.hlmc")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		tb.Fatal(err)
	}
	return path
}

// flipInPlace rewrites one byte of the open file, the way another process
// writing the checkpoint would: through the file, never truncating it, so
// a MAP_SHARED mapping of it sees the new byte.
func flipInPlace(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x20
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// nibbleByte is the file offset of a byte inside the named 4-bit record's
// packed nibbles, past its 20-byte quant header.
func nibbleByte(t *testing.T, ix *Indexed, name string) (slot int, off int64) {
	t.Helper()
	slot, err := ix.slotOf(name)
	if err != nil {
		t.Fatal(err)
	}
	return slot, ix.records[slot].offset + 24
}

// The mapping's checks run at a slot's first fetch, whichever read makes
// it: a record rewritten in place after open, before anything fetched it,
// fails that first fetch typed ErrCorrupt through both reads, and a
// failed fetch leaves the slot unverified, so every later fetch fails too.
// Another record fetched cleanly beforehand keeps reading clean.
func TestMmapCRCCatchesRewriteBeforeFirstFetch(t *testing.T) {
	reads := map[string]func(ix *Indexed, slot int) error{
		"into": func(ix *Indexed, slot int) error {
			_, err := ix.ReadSlotInto(slot, nil)
			return err
		},
		"packed": func(ix *Indexed, slot int) error {
			_, _, err := ix.ReadSlotPacked(slot)
			return err
		},
	}
	for _, order := range [][2]string{{"into", "packed"}, {"packed", "into"}} {
		t.Run(order[0]+"-first", func(t *testing.T) {
			path := mmapFixture(t)
			ix, err := OpenIndexedMmap(path)
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			if _, err := ix.ReadTensor("raw"); err != nil {
				t.Fatalf("clean record: %v", err)
			}
			slot, off := nibbleByte(t, ix, "quantized")
			flipInPlace(t, path, off)
			for i, name := range []string{order[0], order[1], order[0], order[1]} {
				if err := reads[name](ix, slot); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("fetch %d (%s) of the rewritten record: err = %v, want ErrCorrupt", i+1, name, err)
				}
			}
			if _, err := ix.ReadTensor("raw"); err != nil {
				t.Fatalf("clean record after the rewrite: %v", err)
			}
		})
	}
}

// The pread path checks every fetch, because every fetch reads the bytes
// afresh: a record rewritten in place after clean fetches fails the next
// one typed ErrCorrupt, through both reads. The daemon opens its
// checkpoints this way.
func TestCRCPreadCatchesRewriteAfterCleanFetch(t *testing.T) {
	path := mmapFixture(t)
	ix, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if err := ix.Verify(); err != nil {
		t.Fatal(err)
	}
	slot, off := nibbleByte(t, ix, "quantized")
	if _, err := ix.ReadSlotInto(slot, nil); err != nil {
		t.Fatalf("clean fetch: %v", err)
	}
	if _, ok, err := ix.ReadSlotPacked(slot); !ok || err != nil {
		t.Fatalf("clean packed fetch: ok=%v err=%v", ok, err)
	}
	flipInPlace(t, path, off)
	if _, err := ix.ReadSlotInto(slot, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("fetch after the rewrite: err = %v, want ErrCorrupt", err)
	}
	if _, _, err := ix.ReadSlotPacked(slot); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("packed fetch after the rewrite: err = %v, want ErrCorrupt", err)
	}
}

// Once a slot has passed its checks on a mapping, its fetches skip them:
// an in-place rewrite after that goes unseen by fetches (the window
// DESIGN §3h names), and Verify, which always runs every check, still
// reports it.
func TestMmapCRCVerifyRechecksVerifiedSlots(t *testing.T) {
	if !MmapSupported() {
		t.Skip("no mmap on this platform: every fetch is a checked pread")
	}
	path := mmapFixture(t)
	ix, err := OpenIndexedMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if err := ix.Verify(); err != nil {
		t.Fatal(err)
	}
	slot, off := nibbleByte(t, ix, "quantized")
	flipInPlace(t, path, off)
	if _, ok, err := ix.ReadSlotPacked(slot); !ok || err != nil {
		t.Fatalf("packed fetch of a verified slot: ok=%v err=%v, want the view unchecked", ok, err)
	}
	if _, err := ix.ReadSlotInto(slot, nil); err != nil {
		t.Fatalf("fetch of a verified slot: %v, want it unchecked", err)
	}
	if err := ix.Verify(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Verify after the rewrite: err = %v, want ErrCorrupt", err)
	}
}

// Eight first fetches of one unverified slot at once, on a mapping: each
// may run the checks, none may see a half-published flag, and all return
// the same view without error — the view a pread index decodes to.
func TestMmapConcurrentFirstFetch(t *testing.T) {
	path := packedFixture(t, 1<<16)
	plain, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	want, err := plain.ReadTensor("w")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := OpenIndexedMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	slot, err := ix.slotOf("w")
	if err != nil {
		t.Fatal(err)
	}
	const fetchers = 8
	views := make([]quant.Packed, fetchers)
	errs := make([]error, fetchers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range fetchers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			var ok bool
			if views[i], ok, errs[i] = ix.ReadSlotPacked(slot); !ok && errs[i] == nil {
				errs[i] = errors.New("not packable")
			}
		}()
	}
	close(start)
	wg.Wait()
	for i := range fetchers {
		if errs[i] != nil {
			t.Fatalf("fetcher %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(views[i], views[0]) {
			t.Fatalf("fetcher %d got a different view than fetcher 0", i)
		}
	}
	got := views[0].DequantizeInto(nil)
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("element %d: view %v, pread decode %v", i, got[i], want[i])
		}
	}
	if ix.Mapped() && !ix.verified[slot].Load() {
		t.Fatal("the slot is still unverified after eight good fetches")
	}
}

// BenchmarkReadSlotPacked is the cost of one steady-state fetch of a
// bench-ooc FFN matrix (384×1536, 4-bit, groups of 64) as a packed view:
// through pread, which copies and checks every fetch, and through the
// mapping, which checks the slot's first fetch only. Report-only.
func BenchmarkReadSlotPacked(b *testing.B) {
	path := packedFixture(b, 384*1536)
	for _, tc := range []struct {
		name string
		open func(string) (*Indexed, error)
	}{
		{"readat", OpenIndexed},
		{"mmap", OpenIndexedMmap},
	} {
		b.Run(tc.name, func(b *testing.B) {
			ix, err := tc.open(path)
			if err != nil {
				b.Fatal(err)
			}
			defer ix.Close()
			slot, err := ix.slotOf("w")
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(ix.records[slot].length)
			b.ReportAllocs()
			for b.Loop() {
				if _, ok, err := ix.ReadSlotPacked(slot); !ok || err != nil {
					b.Fatalf("ok=%v err=%v", ok, err)
				}
			}
		})
	}
}
