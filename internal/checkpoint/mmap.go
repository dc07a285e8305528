package checkpoint

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"
)

// MappedFile serves a checkpoint file as a read-only byte view. On unix
// builds the whole file is mmapped (PROT_READ) and Bytes exposes the
// mapping, so payload reads are zero-copy page-cache views; elsewhere
// it degrades to a plain os.File and Bytes returns nil, which makes
// every consumer fall back to the copying ReadAt path. Either way it is
// an io.ReaderAt, so Indexed works on top of it unchanged.
//
// Lifetime contract (DESIGN §3h): Bytes views are only valid until
// Close. Close unmaps the pages, so whoever closes must first stop
// every reader: the serving daemon closes a retired checkpoint
// generation only after the last engine built on it has closed and
// joined its fetches.
type MappedFile struct {
	data   []byte   // the mapping; nil when not mapped
	f      *os.File // fallback backing; nil when mapped
	closed atomic.Bool
}

// OpenMapped opens path as a MappedFile, mapping it when the platform
// supports mmap.
func OpenMapped(path string) (*MappedFile, error) {
	return openMapped(path)
}

// Mapped reports whether reads are served from an mmap view rather than
// file reads.
func (m *MappedFile) Mapped() bool { return m.data != nil }

// Bytes returns the full read-only mapping, or nil when the file is not
// mapped (fallback builds, empty files) or already closed. Callers must
// not write through the returned slice and must not use it after Close.
func (m *MappedFile) Bytes() []byte {
	if m.closed.Load() {
		return nil
	}
	return m.data
}

// ReadAt implements io.ReaderAt over the mapping or the fallback file.
func (m *MappedFile) ReadAt(p []byte, off int64) (int, error) {
	if m.closed.Load() {
		return 0, fmt.Errorf("checkpoint: mapped file: %w", ErrClosed)
	}
	if m.f != nil {
		return m.f.ReadAt(p, off)
	}
	if off < 0 {
		return 0, fmt.Errorf("checkpoint: mapped file: negative offset %d", off)
	}
	if off >= int64(len(m.data)) {
		return 0, io.EOF
	}
	n := copy(p, m.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Close releases the mapping (or the fallback file). It is idempotent.
// No Bytes view or ReadAt may be in flight or used afterwards — see the
// lifetime contract above.
func (m *MappedFile) Close() error {
	if m.closed.Swap(true) {
		return nil
	}
	return m.release()
}
