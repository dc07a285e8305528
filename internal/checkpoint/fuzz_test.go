package checkpoint

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// fuzzSeeds is FuzzIndexed's corpus: a valid version-2 checkpoint,
// truncations and single flips of it, and legacy version-1 checkpoints.
func fuzzSeeds(f *testing.F) [][]byte {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "fuzz-model", 2)
	if err != nil {
		f.Fatal(err)
	}
	if err := w.WriteRaw("a", []float32{1, 2, 3}); err != nil {
		f.Fatal(err)
	}
	if err := w.WriteRaw("b", []float32{4}); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes() // version 2, CRC per record
	// Flipped record-header byte (first record starts after the 20-byte
	// file header: magic+version+namelen+"fuzz-model"+count).
	hdrFlip := bytes.Clone(valid)
	hdrFlip[21] ^= 0x40
	// Flipped payload byte.
	payloadFlip := bytes.Clone(valid)
	payloadFlip[len(payloadFlip)-2] ^= 0x04
	// Flipped CRC byte and legacy corruption seed.
	corrupted := bytes.Clone(valid)
	corrupted[6] ^= 0x7f
	// A hand-built version-1 stream keeps the legacy path in the corpus.
	v1 := writeV1("fuzz-v1", []struct {
		name string
		data []float32
	}{{"a", []float32{1, 2}}})
	return [][]byte{
		valid,
		// Truncated payload: the final bytes belong to tensor "b"'s payload.
		valid[:len(valid)-1],
		valid[:len(valid)/2],
		hdrFlip,
		payloadFlip,
		corrupted,
		[]byte("HLMC"),
		{},
		v1,
		v1[:len(v1)-1],
	}
}

// mappedBytes serves a byte slice the way a MappedFile serves its
// mapping, so an index over it takes the zero-copy view path.
type mappedBytes []byte

func (m mappedBytes) ReadAt(p []byte, off int64) (int, error) {
	return bytes.NewReader(m).ReadAt(p, off)
}

func (m mappedBytes) Bytes() []byte { return m }

// FuzzIndexed hardens the checkpoint parser: arbitrary bytes must either
// fail NewIndexed or index records every read of which — decoded or
// packed, through a ReaderAt or a mapping — returns data or a typed
// ErrCorrupt, never panics, and allocates nothing a length field claims
// beyond what the bytes hold. Record-level rejections are corruption by
// definition here: the only reader under a bytes.Reader that can fail
// mid-record is one looking at inconsistent bytes, so resilience layers
// can classify every one of them as permanent.
func FuzzIndexed(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, r := range []io.ReaderAt{bytes.NewReader(data), mappedBytes(data)} {
			ix, err := NewIndexed(r)
			if err != nil {
				continue
			}
			for slot := range ix.Names() {
				if _, err := ix.ReadSlotInto(slot, nil); err != nil && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("slot %d: read error not typed ErrCorrupt: %v", slot, err)
				}
				if _, _, err := ix.ReadSlotPacked(slot); err != nil && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("slot %d: packed read error not typed ErrCorrupt: %v", slot, err)
				}
			}
			if err := ix.Verify(); err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Verify error not typed ErrCorrupt: %v", err)
			}
		}
	})
}
