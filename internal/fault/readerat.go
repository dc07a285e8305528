package fault

import (
	"fmt"
	"io"
)

// ReaderAt injects faults at byte granularity: each ReadAt call is one
// access of the plan. Slotted under checkpoint.Indexed it models the
// storage tier itself failing — transient I/O errors surface before any
// bytes move, and corruption flips one bit of the bytes handed up, which
// the checkpoint's per-record CRC must catch.
type ReaderAt struct {
	injector
	r io.ReaderAt
}

// NewReaderAt wraps an io.ReaderAt with the plan's faults.
func NewReaderAt(r io.ReaderAt, plan Plan) (*ReaderAt, error) {
	if r == nil {
		return nil, fmt.Errorf("fault: nil reader")
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &ReaderAt{injector: newInjector(plan), r: r}, nil
}

// ReadAt implements io.ReaderAt with injection.
func (f *ReaderAt) ReadAt(p []byte, off int64) (int, error) {
	o, armed := f.decide(true)
	if !armed {
		return f.r.ReadAt(p, off)
	}
	if o.spike {
		f.sleep()
	}
	if o.fail {
		return 0, fmt.Errorf("fault: injected I/O error at access %d (%d bytes @ %d): %w", o.access, len(p), off, ErrTransient)
	}
	n, err := f.r.ReadAt(p, off)
	if o.corrupt && n > 0 {
		i := int(o.bitIndex % int64(n))
		p[i] ^= 1 << uint(o.bitIndex%8)
	}
	return n, err
}
