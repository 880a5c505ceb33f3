package obs

import (
	"errors"
	"io"
	"math/bits"
	"sync"
	"unsafe"
)

// ErrBodyTooLarge reports a body over ReadBody's limit, declared or sent.
var ErrBodyTooLarge = errors.New("body exceeds the size limit")

// Push bodies, store frames and encoded profiles are each about one
// profile's bytes, and every fresh allocation of one costs the runtime a
// clear of that many bytes. They are recycled through one pool per size
// class, the powers of two from ReadBody's first buffer to the largest
// body a handler accepts. A pool holds each array's first byte, not a
// slice header, so that a get and a put allocate nothing.
const (
	minClassShift = 12 // 4 KiB
	maxClassShift = 26 // 64 MiB
)

var classes [maxClassShift - minClassShift + 1]sync.Pool // of *byte

// GetBuffer returns an empty buffer with room for at least n bytes. Its
// capacity is n rounded up to a power of two, and at least 4 KiB; a buffer
// over 64 MiB is allocated at exactly n and never pooled.
func GetBuffer(n int) []byte {
	shift := minClassShift
	if n > 1<<minClassShift {
		shift = bits.Len(uint(n - 1))
	}
	if shift > maxClassShift {
		return make([]byte, 0, n)
	}
	if p, ok := classes[shift-minClassShift].Get().(*byte); ok {
		return unsafe.Slice(p, 1<<shift)[:0]
	}
	return make([]byte, 0, 1<<shift)
}

// PutBuffer hands back a buffer that GetBuffer, Grow or ReadBody returned,
// of which the caller must be the last reader; it drops any other capacity.
func PutBuffer(b []byte) {
	c := cap(b)
	if c < 1<<minClassShift || c > 1<<maxClassShift || c&(c-1) != 0 {
		return
	}
	classes[bits.Len(uint(c))-1-minClassShift].Put(unsafe.SliceData(b))
}

// Grow returns b with room for n more bytes: b itself if it has them, else
// a copy in GetBuffer(max(len(b)+n, 2*cap(b))), after handing b back with
// PutBuffer.
func Grow(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b
	}
	next := append(GetBuffer(max(len(b)+n, 2*cap(b))), b...)
	PutBuffer(b)
	return next
}

// ReadBody reads an HTTP body of at most limit bytes; declared is its
// Content-Length (-1 when unknown). A body declared or sent longer than
// limit fails with ErrBodyTooLarge, one that ends before its declared
// length with the transport's error (io.ErrUnexpectedEOF from net/http).
// The caller hands the returned bytes back with PutBuffer once nothing
// reads them any more.
//
// The buffer starts at 4 KiB and moves to the next size class only when
// it is full, so a request never holds more than max(4 KiB, twice what it
// actually sent), whatever it declared. No read goes past
// min(declared, limit)+1 bytes: the last byte is a one-byte probe that
// must find the end of the body.
func ReadBody(body io.Reader, declared int64, limit int) ([]byte, error) {
	if declared > int64(limit) {
		return nil, ErrBodyTooLarge
	}
	size := limit
	if declared >= 0 {
		size = int(declared)
	}
	buf := GetBuffer(1 << minClassShift)
	for len(buf) < size {
		buf = Grow(buf, 1)
		n, err := body.Read(buf[len(buf):min(cap(buf), size)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			PutBuffer(buf)
			return nil, err
		}
	}
	var probe [1]byte
	_, err := io.ReadFull(body, probe[:])
	if err == io.EOF {
		return buf, nil
	}
	PutBuffer(buf)
	switch {
	case err != nil:
		return nil, err
	case declared >= 0:
		return nil, errors.New("body longer than its Content-Length")
	default:
		return nil, ErrBodyTooLarge
	}
}
