//go:build unix

package checkpoint

import (
	"fmt"
	"math"
	"os"
	"syscall"
)

// MmapSupported reports whether this build serves checkpoints from an
// mmap view (true on unix; the fallback build reads through os.File).
func MmapSupported() bool { return true }

func openMapped(path string) (*MappedFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := st.Size()
	if size == 0 {
		// mmap rejects zero-length mappings; an empty file cannot be a
		// valid checkpoint anyway, so keep the file and let the header
		// scan fail with its usual truncation error.
		return &MappedFile{f: f}, nil
	}
	if size > math.MaxInt {
		f.Close()
		return nil, fmt.Errorf("checkpoint: %s is too large to map (%d bytes)", path, size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	// The mapping outlives the descriptor; the file can be closed now
	// either way.
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("checkpoint: mmap %s: %w", path, err)
	}
	return &MappedFile{data: data}, nil
}

func (m *MappedFile) release() error {
	if m.f != nil {
		return m.f.Close()
	}
	if len(m.data) == 0 {
		return nil
	}
	return syscall.Munmap(m.data)
}
