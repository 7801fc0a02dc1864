//go:build unix

package runstore

import (
	"slices"
	"syscall"
)

// readEntry reads the object file at path on a raw descriptor (one open,
// the reads, one close; no poller registration or stat), into buf while
// it fits and into a growing heap slice beyond. The frame header bounds
// the read: a short read that completes the frame is the end of a
// regular file, so an entry that fits buf takes a single read and no
// EOF read. Otherwise reading stops at end of file or one byte past the
// frame, so the decoder sees trailing bytes. A header no valid file can
// have (a wrong magic, an impossible length) also stops it: the decoder
// rejects those whatever follows.
func readEntry(path string, buf []byte) ([]byte, error) {
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	for err == syscall.EINTR {
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	}
	if err != nil {
		return nil, err
	}
	defer syscall.Close(fd)
	data, limit := buf[:0], -1 // limit: frame length + 1, once the header is in
	for {
		if len(data) == cap(data) {
			grow := max(cap(data), 1)
			if limit > 0 {
				grow = min(grow, limit-len(data))
			}
			data = slices.Grow(data, grow)
		}
		end := cap(data) // the read asks for data[len(data):end]
		if limit > 0 {
			end = min(end, limit)
		}
		m, err := syscall.Read(fd, data[len(data):end])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return nil, err
		}
		short := len(data)+m < end
		data = data[:len(data)+m]
		if m == 0 {
			return data, nil
		}
		if limit < 0 {
			n, ok := frameLen(data)
			if !ok {
				return data, nil
			}
			if n >= 0 {
				limit = n + 1
			}
		}
		if limit > 0 && (len(data) >= limit || short && len(data) == limit-1) {
			return data, nil
		}
	}
}
