package checkpoint

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"helmsim/internal/quant"
)

// entryMeta locates one tensor inside the file.
type entryMeta struct {
	kind   Kind
	offset int64 // payload start
	length int64
	crc    uint32 // v2 record checksum; unused for v1
	// packable is what the record's own header said at scan time: a
	// 4-bit layout ReadPacked can hand out as a view. It routes a read
	// before any payload work; the verdict that counts is ViewPacked's,
	// on the CRC-checked payload.
	packable bool
}

// Indexed is a random-access view of a checkpoint: the header and tensor
// directory are scanned once, payloads stay on the backing reader and
// are read and decoded per request — the out-of-core weight access
// pattern, where a 300 GB checkpoint serves layer by layer from storage.
//
// The backing reader is any io.ReaderAt (OpenIndexed supplies a file),
// which is where fault injection slots in: wrap the reader and every
// payload fetch goes through the injector. Version-2 checkpoints verify
// each record's CRC on every ReadTensor, so storage-tier bit flips
// surface as ErrCorrupt instead of garbage floats.
type Indexed struct {
	r         io.ReaderAt
	closer    io.Closer // nil when the caller owns the reader
	version   uint32
	modelName string
	entries   map[string]entryMeta
	order     []string
	closed    atomic.Bool
}

// OpenIndexed opens and indexes a checkpoint file.
func OpenIndexed(path string) (*Indexed, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	ix, err := NewIndexed(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	ix.closer = f
	return ix, nil
}

// OpenIndexedMmap opens and indexes a checkpoint through a MappedFile,
// so payload reads become zero-copy views of the page cache on
// platforms with mmap (record CRCs are still verified on every read).
// On fallback builds it behaves exactly like OpenIndexed. Close unmaps
// the file, so the pin discipline documented on MappedFile applies.
func OpenIndexedMmap(path string) (*Indexed, error) {
	mf, err := OpenMapped(path)
	if err != nil {
		return nil, err
	}
	ix, err := NewIndexed(mf)
	if err != nil {
		mf.Close()
		return nil, err
	}
	ix.closer = mf
	return ix, nil
}

// NewIndexed indexes a checkpoint served from any io.ReaderAt. The
// caller retains ownership of the reader; Close only marks the index
// closed.
func NewIndexed(r io.ReaderAt) (*Indexed, error) {
	if r == nil {
		return nil, fmt.Errorf("checkpoint: nil reader")
	}
	ix := &Indexed{r: r, entries: make(map[string]entryMeta)}
	if err := ix.scan(); err != nil {
		return nil, err
	}
	return ix, nil
}

// readAt is io.ReaderAt.ReadAt with full-buffer semantics.
func (ix *Indexed) readAt(p []byte, off int64) error {
	n, err := ix.r.ReadAt(p, off)
	if err != nil && !(err == io.EOF && n == len(p)) {
		return err
	}
	if n < len(p) {
		return io.ErrUnexpectedEOF
	}
	return nil
}

// scan reads the header and walks the tensor directory without loading
// payloads.
func (ix *Indexed) scan() error {
	le := binary.LittleEndian
	var hdr [10]byte
	if err := ix.readAt(hdr[:], 0); err != nil {
		return fmt.Errorf("checkpoint: header: %w", err)
	}
	if got := le.Uint32(hdr[0:]); got != magic {
		return fmt.Errorf("checkpoint: bad magic %#x", got)
	}
	ver, err := readVersion(le.Uint32(hdr[4:]))
	if err != nil {
		return err
	}
	ix.version = ver
	nameLen := int64(le.Uint16(hdr[8:]))
	name := make([]byte, nameLen)
	if err := ix.readAt(name, 10); err != nil {
		return fmt.Errorf("checkpoint: model name: %w", err)
	}
	ix.modelName = string(name)
	var cnt [4]byte
	if err := ix.readAt(cnt[:], 10+nameLen); err != nil {
		return fmt.Errorf("checkpoint: count: %w", err)
	}
	n := le.Uint32(cnt[:])

	off := int64(10) + nameLen + 4
	for i := uint32(0); i < n; i++ {
		var nl [2]byte
		if err := ix.readAt(nl[:], off); err != nil {
			return fmt.Errorf("checkpoint: tensor %d header: %w", i, corruptRead(err))
		}
		tn := make([]byte, le.Uint16(nl[:]))
		if err := ix.readAt(tn, off+2); err != nil {
			return fmt.Errorf("checkpoint: tensor %d name: %w", i, corruptRead(err))
		}
		var kp [9]byte
		metaOff := off + 2 + int64(len(tn))
		if err := ix.readAt(kp[:], metaOff); err != nil {
			return fmt.Errorf("checkpoint: tensor %q meta: %w", tn, corruptRead(err))
		}
		payloadLen := int64(le.Uint64(kp[1:]))
		if payloadLen < 0 || payloadLen > 1<<40 {
			return fmt.Errorf("checkpoint: tensor %q has bad payload length %d: %w", tn, payloadLen, ErrCorrupt)
		}
		m := entryMeta{kind: Kind(kp[0]), length: payloadLen}
		payloadOff := metaOff + 9
		if ver >= versionCRC {
			var cb [4]byte
			if err := ix.readAt(cb[:], payloadOff); err != nil {
				return fmt.Errorf("checkpoint: tensor %q crc: %w", tn, corruptRead(err))
			}
			m.crc = le.Uint32(cb[:])
			payloadOff += 4
		}
		m.offset = payloadOff
		if m.kind == KindGWQ {
			var qh [20]byte
			m.packable = ix.readAt(qh[:], payloadOff) == nil && quant.HeaderPackable(qh[:])
		}
		key := string(tn)
		if _, dup := ix.entries[key]; dup {
			return fmt.Errorf("checkpoint: duplicate tensor %q", key)
		}
		ix.entries[key] = m
		ix.order = append(ix.order, key)
		off = payloadOff + payloadLen
	}
	return nil
}

// ModelName reports the checkpoint's model.
func (ix *Indexed) ModelName() string { return ix.modelName }

// Version reports the checkpoint's format version.
func (ix *Indexed) Version() int { return int(ix.version) }

// Names lists the tensor names in file order.
func (ix *Indexed) Names() []string { return append([]string(nil), ix.order...) }

// Has reports whether the tensor exists.
func (ix *Indexed) Has(name string) bool {
	_, ok := ix.entries[name]
	return ok
}

// byteRanger is the optional backing-reader extension (MappedFile) that
// exposes the whole file as one byte view, enabling zero-copy payload
// access.
type byteRanger interface {
	Bytes() []byte
}

// payload returns the record's bytes after the checks every read makes:
// a bounds-checked view of the backing mapping when the reader exposes
// one, a fresh copy read through io.ReaderAt otherwise, matched against
// the record CRC on version-2 checkpoints. Views are only valid while the
// index stays open.
func (ix *Indexed) payload(name string, m entryMeta) ([]byte, error) {
	var p, b []byte
	if br, ok := ix.r.(byteRanger); ok {
		b = br.Bytes()
	}
	if b != nil {
		end := m.offset + m.length
		if m.offset < 0 || end < m.offset || end > int64(len(b)) {
			return nil, fmt.Errorf("checkpoint: tensor %q extends past the mapped file: %w", name, ErrCorrupt)
		}
		p = b[m.offset:end:end]
	} else {
		var err error
		if p, err = ix.payloadCopy(m); err != nil {
			if ix.closed.Load() {
				return nil, fmt.Errorf("checkpoint: tensor %q: %w", name, ErrClosed)
			}
			return nil, fmt.Errorf("checkpoint: tensor %q payload: %w", name, corruptRead(err))
		}
	}
	if ix.version >= versionCRC {
		if got := recordCRC(name, m.kind, p); got != m.crc {
			return nil, fmt.Errorf("checkpoint: tensor %q crc mismatch (stored %#x, computed %#x): %w", name, m.crc, got, ErrCorrupt)
		}
	}
	//lint:helmvet-ignore mmapalias payload is the view-or-copy seam itself: its doc binds the view's lifetime to the open index; ReadTensorInto copies out before returning, and ReadPacked hands the view on only as a quant.Packed, whose holders (DESIGN §3h) keep the index open through their generation pin
	return p, nil
}

// payloadCopy reads the record's bytes through io.ReaderAt: one
// allocation for payloads up to a chunk, doubling growth beyond so a
// corrupt index claiming an enormous payload fails on a short read
// before the full claim is ever allocated.
func (ix *Indexed) payloadCopy(m entryMeta) ([]byte, error) {
	const chunk = int64(1 << 20)
	buf := make([]byte, min(m.length, chunk))
	var read int64
	for {
		if err := ix.readAt(buf[read:], m.offset+read); err != nil {
			return nil, err
		}
		read = int64(len(buf))
		if read >= m.length {
			return buf, nil
		}
		grown := make([]byte, min(m.length, read*2))
		copy(grown, buf)
		buf = grown
	}
}

// Mapped reports whether payload reads are zero-copy mmap views.
func (ix *Indexed) Mapped() bool {
	br, ok := ix.r.(byteRanger)
	return ok && br.Bytes() != nil
}

// lookup returns the record's directory entry, or why no read can be
// served: the index is closed, or holds no such tensor.
func (ix *Indexed) lookup(name string) (entryMeta, error) {
	if ix.closed.Load() {
		return entryMeta{}, fmt.Errorf("checkpoint: tensor %q: %w", name, ErrClosed)
	}
	m, ok := ix.entries[name]
	if !ok {
		return entryMeta{}, fmt.Errorf("checkpoint: no tensor %q", name)
	}
	return m, nil
}

// ReadTensor fetches and decodes one tensor from storage, verifying the
// record CRC on version-2 checkpoints. After Close it fails with
// ErrClosed; corrupt records fail with ErrCorrupt.
func (ix *Indexed) ReadTensor(name string) (*Entry, error) {
	return ix.ReadTensorInto(name, nil)
}

// ReadTensorInto is ReadTensor decoding into dst when its capacity
// suffices (allocating otherwise) — the Entry's Data aliases dst in
// that case, so the caller owns the buffer and must not reuse it while
// the Entry is live. Data never aliases the checkpoint's backing
// storage, even on mmap-backed indexes.
func (ix *Indexed) ReadTensorInto(name string, dst []float32) (*Entry, error) {
	m, err := ix.lookup(name)
	if err != nil {
		return nil, err
	}
	payload, err := ix.payload(name, m)
	if err != nil {
		return nil, err
	}
	return decodePayloadInto(name, m.kind, payload, dst)
}

// ReadPacked hands out a 4-bit record as a validated view of its bytes
// instead of decoding it: a view of the mapping on an mmap-backed index,
// of the freshly read copy otherwise. It performs the checks
// ReadTensorInto performs — closed, bounds, per-read CRC, payload
// validation — and the view stays valid only while the index is open.
// ok is false, with a nil error and before any payload work, for records
// that have no packed form (raw fp16, 2- and 8-bit, odd group sizes):
// read those with ReadTensorInto.
func (ix *Indexed) ReadPacked(name string) (p quant.Packed, ok bool, err error) {
	m, err := ix.lookup(name)
	if err != nil || !m.packable {
		return quant.Packed{}, false, err
	}
	payload, err := ix.payload(name, m)
	if err != nil {
		return quant.Packed{}, false, err
	}
	if p, ok, err = quant.ViewPacked(payload); err != nil {
		return quant.Packed{}, false, fmt.Errorf("checkpoint: tensor %q: %v: %w", name, err, ErrCorrupt)
	}
	return p, ok, nil
}

// Verify re-reads and decodes every record in file order, validating
// per-record CRCs on version-2 checkpoints — the pre-flight integrity
// pass a serving daemon runs before hot-swapping a reloaded checkpoint
// under live traffic. It returns the first failure (ErrCorrupt for bad
// records, ErrClosed after Close) and reads nothing into long-lived
// memory: every record decodes into one buffer that grows to the largest
// record and is dropped on return.
func (ix *Indexed) Verify() error {
	var buf []float32
	for _, name := range ix.order {
		e, err := ix.ReadTensorInto(name, buf)
		if err != nil {
			return err
		}
		buf = e.Data
	}
	return nil
}

// Close releases the backing file (when opened via OpenIndexed) and
// fails subsequent reads with ErrClosed. Close is idempotent.
func (ix *Indexed) Close() error {
	if ix.closed.Swap(true) {
		return nil
	}
	if ix.closer != nil {
		return ix.closer.Close()
	}
	return nil
}
