package obs_test

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
	"testing/iotest"

	"vprof/internal/obs"
)

func TestReadBody(t *testing.T) {
	body := bytes.Repeat([]byte("vprof"), 3000) // 15000 bytes: past the first buffer
	for _, c := range []struct {
		name     string
		declared int64
		limit    int
		want     error
	}{
		{"declared", int64(len(body)), 1 << 20, nil},
		{"chunked", -1, 1 << 20, nil},
		{"at the limit", -1, len(body), nil},
		{"chunked over the limit", -1, len(body) - 1, obs.ErrBodyTooLarge},
		{"declared over the limit", int64(len(body)), len(body) - 1, obs.ErrBodyTooLarge},
	} {
		// One byte per Read: the buffer must grow across many reads.
		got, err := obs.ReadBody(iotest.OneByteReader(bytes.NewReader(body)), c.declared, c.limit)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		} else if err == nil && !bytes.Equal(got, body) {
			t.Errorf("%s: read %d bytes, want the %d sent", c.name, len(got), len(body))
		}
	}
	if _, err := obs.ReadBody(bytes.NewReader(body), 100, 1<<20); err == nil {
		t.Error("a body longer than its Content-Length was accepted")
	}
	if _, err := obs.ReadBody(iotest.TimeoutReader(bytes.NewReader(body)), -1, 1<<20); !errors.Is(err, iotest.ErrTimeout) {
		t.Errorf("transport error: err = %v, want %v", err, iotest.ErrTimeout)
	}
}

// allocated returns the fewest bytes one of a few calls of f allocated.
func allocated(f func()) uint64 {
	best := ^uint64(0)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestReadBodyAllocation: a 1 MiB push allocates less than three times its
// size, and a body that declares 64 MiB but sends 10 bytes holds kilobytes.
func TestReadBodyAllocation(t *testing.T) {
	blob := make([]byte, 1<<20)
	got := allocated(func() {
		if _, err := obs.ReadBody(bytes.NewReader(blob), int64(len(blob)), 64<<20); err != nil {
			t.Fatal(err)
		}
	})
	if got >= 3*uint64(len(blob)) {
		t.Errorf("reading a %d-byte body allocated %d bytes, want < 3x", len(blob), got)
	}
	got = allocated(func() {
		_, err := obs.ReadBody(io.LimitReader(bytes.NewReader(blob), 10), 64<<20, 64<<20)
		if err != nil {
			t.Fatal(err)
		}
	})
	if got > 64<<10 {
		t.Errorf("a 10-byte body declared as 64 MiB allocated %d bytes", got)
	}
}
