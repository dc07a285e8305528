// Package checkpoint implements a binary format for model weights — the
// on-disk artifact an out-of-core server loads its layers from. Tensors
// are stored either as raw FP16 or group-wise 4-bit quantized (the
// compression FlexGen applies before serving, §IV-B). Writer emits a
// checkpoint in one pass; Indexed, the format's one parser, scans the
// record directory once and reads each tensor from the backing file on
// demand, so a 300 GB checkpoint never needs to fit in memory.
//
// Layout (little-endian):
//
//	magic "HLMC" | version u32 | name length u16 | model name
//	tensor count u32
//	per tensor (v1): name length u16 | name | kind u8 | payload length u64 | payload
//	per tensor (v2): name length u16 | name | kind u8 | payload length u64 | crc32 u32 | payload
//
// Version 2 adds a per-record CRC32 (IEEE) over the record header and
// payload, so a flipped bit anywhere in a record surfaces as a typed
// ErrCorrupt instead of silently becoming garbage floats — the integrity
// property an out-of-core server re-reading every weight from a
// failure-prone tier on every token depends on. The writer always emits
// version 2; Indexed accepts both versions.
//
// Raw payloads are IEEE-754 binary16 element streams; quantized payloads
// are quant.Tensor.MarshalBinary blobs.
package checkpoint

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"helmsim/internal/quant"
)

// Format constants.
const (
	magic = uint32(0x484c4d43) // "HLMC"
	// versionNoCRC is the legacy record format without integrity checks.
	versionNoCRC = uint32(1)
	// versionCRC adds the per-record CRC32; the writer always emits it.
	versionCRC = uint32(2)
)

// ErrCorrupt is the typed corruption error: any record whose bytes are
// inconsistent — CRC mismatch, truncated payload, malformed header or
// undecodable payload — yields an error wrapping it, never a silently
// wrong tensor. Classify with errors.Is(err, ErrCorrupt).
var ErrCorrupt = errors.New("checkpoint: corrupt record")

// ErrClosed is returned (wrapped) by operations on a closed Indexed
// checkpoint, so engine/store teardown ordering mistakes surface as a
// clear typed error instead of a raw file error.
var ErrClosed = errors.New("checkpoint: closed")

// Kind tags a tensor's encoding.
type Kind uint8

// Tensor encodings.
const (
	KindRawFP16 Kind = iota
	KindGWQ
)

// headerCRC starts a v2 record checksum: CRC32 (IEEE) over the record
// header as stored — name length, name, kind and payload length — which
// the index continues over the payload with crc32.Update at every read,
// so a flip anywhere in the record is caught. The index hashes the bytes
// it parsed the header from, once per record, at open.
func headerCRC(nl, name, kp []byte) uint32 {
	crc := crc32.ChecksumIEEE(nl)
	crc = crc32.Update(crc, crc32.IEEETable, name)
	return crc32.Update(crc, crc32.IEEETable, kp)
}

// Writer emits a checkpoint. Close must be called to flush.
type Writer struct {
	w     *bufio.Writer
	count uint32
	// declared is the tensor count the header holds: the output cannot
	// seek back to patch it, so NewWriter's tensors argument fixes it up
	// front.
	declared uint32
}

// NewWriter starts a checkpoint for the named model holding exactly
// tensors entries.
func NewWriter(w io.Writer, modelName string, tensors int) (*Writer, error) {
	if tensors < 0 || uint64(tensors) > math.MaxUint32 {
		return nil, fmt.Errorf("checkpoint: bad tensor count %d", tensors)
	}
	if len(modelName) > math.MaxUint16 {
		return nil, fmt.Errorf("checkpoint: model name too long")
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	var hdr []byte
	le := binary.LittleEndian
	hdr = le.AppendUint32(hdr, magic)
	hdr = le.AppendUint32(hdr, versionCRC)
	hdr = le.AppendUint16(hdr, uint16(len(modelName)))
	hdr = append(hdr, modelName...)
	hdr = le.AppendUint32(hdr, uint32(tensors))
	if _, err := bw.Write(hdr); err != nil {
		return nil, err
	}
	return &Writer{w: bw, declared: uint32(tensors)}, nil
}

// writeEntry emits one tensor record with its integrity checksum.
func (w *Writer) writeEntry(name string, kind Kind, payload []byte) error {
	if w.count >= w.declared {
		return fmt.Errorf("checkpoint: writing tensor %q beyond the declared %d", name, w.declared)
	}
	if len(name) > math.MaxUint16 {
		return fmt.Errorf("checkpoint: tensor name too long")
	}
	le := binary.LittleEndian
	var hdr []byte
	hdr = le.AppendUint16(hdr, uint16(len(name)))
	hdr = append(hdr, name...)
	hdr = append(hdr, byte(kind))
	hdr = le.AppendUint64(hdr, uint64(len(payload)))
	hdr = le.AppendUint32(hdr, crc32.Update(crc32.ChecksumIEEE(hdr), crc32.IEEETable, payload))
	if _, err := w.w.Write(hdr); err != nil {
		return err
	}
	if _, err := w.w.Write(payload); err != nil {
		return err
	}
	w.count++
	return nil
}

// WriteRaw stores a tensor as FP16.
func (w *Writer) WriteRaw(name string, data []float32) error {
	payload := make([]byte, 2*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint16(payload[2*i:], uint16(quant.ToFloat16(v)))
	}
	return w.writeEntry(name, KindRawFP16, payload)
}

// WriteQuantized stores a group-wise quantized tensor.
func (w *Writer) WriteQuantized(name string, t *quant.Tensor) error {
	payload, err := t.MarshalBinary()
	if err != nil {
		return err
	}
	return w.writeEntry(name, KindGWQ, payload)
}

// Close flushes the checkpoint and verifies the declared tensor count was
// met.
func (w *Writer) Close() error {
	if w.count != w.declared {
		return fmt.Errorf("checkpoint: wrote %d tensors, declared %d", w.count, w.declared)
	}
	return w.w.Flush()
}

// decodePayloadInto decodes a record's payload into dst when its
// capacity suffices (allocating otherwise). Undecodable payloads are
// corruption by definition: on the CRC path they cannot occur without a
// matching checksum forgery, and on the legacy path they are exactly the
// silent bit rot the typed error exists to name. The values never alias
// payload — quantized records are validated as a transient view and
// fully dequantized — so payload may be a short-lived mmap view.
// verified says the payload already passed these checks unchanged (a
// flagged slot of a mapped index), so a 4-bit record skips its metadata
// scan.
func decodePayloadInto(name string, kind Kind, payload []byte, dst []float32, verified bool) ([]float32, error) {
	switch kind {
	case KindRawFP16:
		if len(payload)%2 != 0 {
			return nil, fmt.Errorf("checkpoint: tensor %q has odd fp16 payload: %w", name, ErrCorrupt)
		}
		n := len(payload) / 2
		if cap(dst) < n {
			dst = make([]float32, n)
		}
		dst = dst[:n]
		for i := range dst {
			dst[i] = quant.Float16(binary.LittleEndian.Uint16(payload[2*i:])).Float32()
		}
		return dst, nil
	case KindGWQ:
		data, err := dequantPayload(payload, dst, verified)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: tensor %q: %v: %w", name, err, ErrCorrupt)
		}
		return data, nil
	}
	return nil, fmt.Errorf("checkpoint: tensor %q has unknown kind %d: %w", name, kind, ErrCorrupt)
}

// dequantPayload decodes a quantized record into dst. 4-bit records
// decode straight from the validated view; only the widths the view
// cannot represent build a quant.Tensor and its per-group metadata
// slices.
func dequantPayload(payload []byte, dst []float32, verified bool) ([]float32, error) {
	p, ok, err := viewPacked(payload, verified)
	if err != nil {
		return nil, err
	}
	if ok {
		return p.DequantizeInto(dst), nil
	}
	var t quant.Tensor
	if err := t.UnmarshalBinaryView(payload); err != nil {
		return nil, err
	}
	return t.DequantizeInto(dst), nil
}

// viewPacked is quant.ViewPacked, or quant.ParsePacked — every check
// but the metadata scan — for a payload that already passed it unchanged.
func viewPacked(payload []byte, verified bool) (quant.Packed, bool, error) {
	if verified {
		return quant.ParsePacked(payload)
	}
	return quant.ViewPacked(payload)
}

// readVersion parses and validates the version field.
func readVersion(v uint32) (uint32, error) {
	if v != versionNoCRC && v != versionCRC {
		return 0, fmt.Errorf("checkpoint: unsupported version %d", v)
	}
	return v, nil
}

// corruptRead classifies a mid-record read failure: a record that ends
// early is corrupt (truncation), any other I/O failure passes through.
func corruptRead(err error) error {
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		return fmt.Errorf("%v: %w", err, ErrCorrupt)
	}
	return err
}
