package obs

import (
	"errors"
	"io"
)

// ErrBodyTooLarge reports a body over ReadBody's limit, declared or sent.
var ErrBodyTooLarge = errors.New("body exceeds the size limit")

// bodyStart is the first buffer ReadBody reads into.
const bodyStart = 4 << 10

// ReadBody reads an HTTP body of at most limit bytes; declared is its
// Content-Length (-1 when unknown). A body declared or sent longer than
// limit fails with ErrBodyTooLarge, one that ends before its declared
// length with the transport's error (io.ErrUnexpectedEOF from net/http).
//
// The buffer starts small and doubles as bytes arrive, but never grows past
// min(declared, limit)+1 bytes: what a request holds stays proportional to
// what it actually sent, whatever it declared.
func ReadBody(body io.Reader, declared int64, limit int) ([]byte, error) {
	if declared > int64(limit) {
		return nil, ErrBodyTooLarge
	}
	bound := limit + 1
	if declared >= 0 {
		bound = int(declared) + 1
	}
	buf := make([]byte, 0, min(bound, bodyStart))
	for {
		if len(buf) == cap(buf) {
			if len(buf) == bound {
				if declared >= 0 {
					return nil, errors.New("body longer than its Content-Length")
				}
				return nil, ErrBodyTooLarge
			}
			// Go straight to the bound when one more doubling would
			// stop short of it by less than the bytes already read.
			next := 2 * cap(buf)
			if bound-next < cap(buf) {
				next = bound
			}
			buf = append(make([]byte, 0, next), buf...)
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}
