package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync/atomic"

	"helmsim/internal/quant"
)

// record locates one tensor inside the file.
type record struct {
	name   string
	kind   Kind
	offset int64 // payload start
	length int64
	// crc is the stored v2 record checksum and hdrCRC the checksum of
	// the header bytes scan read (headerCRC); a read continues hdrCRC
	// over the payload and compares the result with crc. Unused for v1.
	crc, hdrCRC uint32
}

// Indexed is a random-access view of a checkpoint: the header and tensor
// directory are scanned once, payloads stay on the backing reader and
// are read and decoded per request — the out-of-core weight access
// pattern, where a 300 GB checkpoint serves layer by layer from storage.
//
// A record is addressed by its slot, its position in file order (its
// index in Names): a reader resolves names to slots once and reads by
// slot, so no read looks a name up.
//
// The backing reader is any io.ReaderAt (OpenIndexed supplies a file),
// which is where fault injection slots in: wrap the reader and every
// payload fetch goes through the injector. Version-2 checkpoints check
// each record's CRC, so storage-tier bit flips surface as ErrCorrupt
// instead of garbage floats: on every read when the bytes are read fresh
// through the reader, and at a slot's first good fetch when they are a
// mapping (DESIGN §3h: the bytes of an open mapping change only if the
// file is rewritten in place).
type Indexed struct {
	r         io.ReaderAt
	closer    io.Closer // nil when the caller owns the reader
	version   uint32
	modelName string
	records   []record // file order: a record's index is its slot
	closed    atomic.Bool
	// verified is nil unless the reader was mapped at open; then it holds
	// one flag per slot, set once a fetch of the slot has passed every
	// check a read makes — bounds, the record CRC, and for a 4-bit record
	// ViewPacked's — after which fetches of that slot skip the CRC and
	// the metadata scan. A mapped index reads only through its mapping,
	// so a flag only ever vouches for the bytes it covers.
	verified []atomic.Bool
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
// platforms with mmap. A record is CRC- and content-checked at its first
// good fetch on the mapping (or by Verify), not at every fetch. On
// fallback builds it behaves exactly like OpenIndexed. Close unmaps the
// file, so the pin discipline documented on MappedFile applies.
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
	ix := &Indexed{r: r}
	if err := ix.scan(); err != nil {
		return nil, err
	}
	if ix.Mapped() {
		ix.verified = make([]atomic.Bool, len(ix.records))
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
	seen := make(map[string]bool)
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
		rec := record{name: string(tn), kind: Kind(kp[0]), length: payloadLen}
		payloadOff := metaOff + 9
		if ver >= versionCRC {
			var cb [4]byte
			if err := ix.readAt(cb[:], payloadOff); err != nil {
				return fmt.Errorf("checkpoint: tensor %q crc: %w", tn, corruptRead(err))
			}
			rec.crc = le.Uint32(cb[:])
			rec.hdrCRC = headerCRC(nl[:], tn, kp[:])
			payloadOff += 4
		}
		rec.offset = payloadOff
		if seen[rec.name] {
			return fmt.Errorf("checkpoint: duplicate tensor %q", rec.name)
		}
		seen[rec.name] = true
		ix.records = append(ix.records, rec)
		off = payloadOff + payloadLen
	}
	return nil
}

// ModelName reports the checkpoint's model.
func (ix *Indexed) ModelName() string { return ix.modelName }

// Version reports the checkpoint's format version.
func (ix *Indexed) Version() int { return int(ix.version) }

// Names lists the tensor names in file order.
func (ix *Indexed) Names() []string {
	names := make([]string, len(ix.records))
	for i := range ix.records {
		names[i] = ix.records[i].name
	}
	return names
}

// RawLen reports the element count of the slot's record when it is
// stored raw (fp16), from the directory alone: nothing is read or
// checked, so a corrupt payload still fails at its first read. ok is
// false for a quantized record and for a slot the index does not hold.
func (ix *Indexed) RawLen(slot int) (n int, ok bool) {
	if slot < 0 || slot >= len(ix.records) || ix.records[slot].kind != KindRawFP16 {
		return 0, false
	}
	return int(ix.records[slot].length / 2), true
}

// byteRanger is the optional backing-reader extension (MappedFile) that
// exposes the whole file as one byte view, enabling zero-copy payload
// access.
type byteRanger interface {
	Bytes() []byte
}

// payload returns the slot's bytes after the checks every read makes: a
// bounds-checked view of the mapping on a mapped index, a fresh copy read
// through io.ReaderAt otherwise, matched against the record CRC on
// version-2 checkpoints — the header's, computed at open, continued over
// the payload. verified reports that the slot's flag was already set
// (never for a copy, nor when full asks for every check): then the CRC
// was skipped, and the caller skips its own content checks too. Views
// are only valid while the index stays open.
func (ix *Indexed) payload(slot int, full bool) (p []byte, verified bool, err error) {
	rec := &ix.records[slot]
	if ix.verified != nil {
		b := ix.r.(byteRanger).Bytes()
		end := rec.offset + rec.length
		switch {
		case b == nil:
			return nil, false, fmt.Errorf("checkpoint: tensor %q: %w", rec.name, ErrClosed)
		case rec.offset < 0 || end < rec.offset || end > int64(len(b)):
			return nil, false, fmt.Errorf("checkpoint: tensor %q extends past the mapped file: %w", rec.name, ErrCorrupt)
		}
		p = b[rec.offset:end:end]
		verified = !full && ix.verified[slot].Load()
	} else if p, err = ix.payloadCopy(rec); err != nil {
		if ix.closed.Load() {
			return nil, false, fmt.Errorf("checkpoint: tensor %q: %w", rec.name, ErrClosed)
		}
		return nil, false, fmt.Errorf("checkpoint: tensor %q payload: %w", rec.name, corruptRead(err))
	}
	if ix.version >= versionCRC && !verified {
		if got := crc32.Update(rec.hdrCRC, crc32.IEEETable, p); got != rec.crc {
			return nil, false, fmt.Errorf("checkpoint: tensor %q crc mismatch (stored %#x, computed %#x): %w", rec.name, rec.crc, got, ErrCorrupt)
		}
	}
	return p, verified, nil
}

// markVerified sets the slot's flag on a mapped index: a fetch of it
// has just passed every check. Two first fetches may both check and both
// set it; an atomic store is all either publishes.
func (ix *Indexed) markVerified(slot int) {
	if ix.verified != nil {
		ix.verified[slot].Store(true)
	}
}

// payloadCopy reads the record's bytes through io.ReaderAt: one
// allocation for payloads up to a chunk, doubling growth beyond so a
// corrupt index claiming an enormous payload fails on a short read
// before the full claim is ever allocated.
func (ix *Indexed) payloadCopy(rec *record) ([]byte, error) {
	const chunk = int64(1 << 20)
	buf := make([]byte, min(rec.length, chunk))
	var read int64
	for {
		if err := ix.readAt(buf[read:], rec.offset+read); err != nil {
			return nil, err
		}
		read = int64(len(buf))
		if read >= rec.length {
			return buf, nil
		}
		grown := make([]byte, min(rec.length, read*2))
		copy(grown, buf)
		buf = grown
	}
}

// Mapped reports whether payload reads are zero-copy mmap views.
func (ix *Indexed) Mapped() bool {
	br, ok := ix.r.(byteRanger)
	return ok && br.Bytes() != nil
}

// lookup returns the slot's record, or why no read can be served: the
// index is closed, or holds no such slot.
func (ix *Indexed) lookup(slot int) (*record, error) {
	if slot < 0 || slot >= len(ix.records) {
		return nil, fmt.Errorf("checkpoint: no tensor slot %d", slot)
	}
	rec := &ix.records[slot]
	if ix.closed.Load() {
		return nil, fmt.Errorf("checkpoint: tensor %q: %w", rec.name, ErrClosed)
	}
	return rec, nil
}

// ReadSlotInto fetches and decodes the slot's tensor from storage,
// checking the record CRC on version-2 checkpoints (on a mapped index,
// until a fetch of the slot has passed every check), into dst when its
// capacity suffices (allocating otherwise): the returned values alias
// dst in that case, so the caller owns the buffer. They never alias the
// checkpoint's backing storage, even on mmap-backed indexes. After
// Close it fails with ErrClosed; corrupt records fail with ErrCorrupt.
func (ix *Indexed) ReadSlotInto(slot int, dst []float32) ([]float32, error) {
	return ix.readSlotInto(slot, dst, false)
}

// readSlotInto is ReadSlotInto; full runs every check whatever the
// slot's flag says.
func (ix *Indexed) readSlotInto(slot int, dst []float32, full bool) ([]float32, error) {
	rec, err := ix.lookup(slot)
	if err != nil {
		return nil, err
	}
	payload, verified, err := ix.payload(slot, full)
	if err != nil {
		return nil, err
	}
	data, err := decodePayloadInto(rec.name, rec.kind, payload, dst, verified)
	if err == nil && !verified {
		ix.markVerified(slot)
	}
	return data, err
}

// ReadSlotPacked hands out the slot's quantized record as a validated
// view of its bytes instead of decoding it: a view of the mapping on an
// mmap-backed index, of the freshly read copy otherwise. It performs the
// checks ReadSlotInto performs — closed, bounds, CRC, payload validation
// — except that on a mapped index a slot that has already passed them
// skips the CRC and the metadata scan; the view is re-derived from the
// mapping on every fetch and stays valid only while the index is open.
// Every quantized record is 4-bit with even groups: one of another width
// or group size fails with ErrCorrupt, naming the tensor. ok is false,
// with a nil error and before any payload work, for a record that is not
// quantized (raw fp16): read those with ReadSlotInto.
func (ix *Indexed) ReadSlotPacked(slot int) (p quant.Packed, ok bool, err error) {
	rec, err := ix.lookup(slot)
	if err != nil || rec.kind != KindGWQ {
		return quant.Packed{}, false, err
	}
	payload, verified, err := ix.payload(slot, false)
	if err != nil {
		return quant.Packed{}, false, err
	}
	if p, err = viewPacked(rec.name, payload, verified); err != nil {
		return quant.Packed{}, false, err
	}
	if !verified {
		ix.markVerified(slot)
	}
	return p, true, nil
}

// Verify re-reads and decodes every record in file order, running every
// check a first fetch runs — per-record CRCs on version-2 checkpoints,
// content validation — whether or not a fetch already passed them, and
// on a mapped index sets each slot's flag as its record passes: the
// pre-flight integrity pass a serving daemon runs before hot-swapping a
// reloaded checkpoint under live traffic. It returns the first failure
// (ErrCorrupt for bad records, ErrClosed after Close) and reads nothing
// into long-lived memory: every record decodes into one buffer that
// grows to the largest record and is dropped on return.
func (ix *Indexed) Verify() error {
	var buf []float32
	for slot := range ix.records {
		data, err := ix.readSlotInto(slot, buf, true)
		if err != nil {
			return err
		}
		buf = data
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
