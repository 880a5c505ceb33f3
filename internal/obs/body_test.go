package obs_test

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"testing/iotest"
	"unsafe"

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

// pooling reports whether sync.Pool keeps what it is given: under the race
// detector it drops a random quarter of its Puts.
func pooling() bool {
	bi, ok := debug.ReadBuildInfo()
	return !ok || !slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
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

// TestBufferClasses: GetBuffer rounds up to a power-of-two class of at
// least 4 KiB, and PutBuffer pools only buffers of exactly such a class.
func TestBufferClasses(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 4 << 10}, {1, 4 << 10}, {4 << 10, 4 << 10}, {4<<10 + 1, 8 << 10},
		{1 << 20, 1 << 20}, {1<<20 + 8, 2 << 20}, {64<<20 + 1, 64<<20 + 1},
	} {
		if b := obs.GetBuffer(c.n); len(b) != 0 || cap(b) != c.want {
			t.Errorf("GetBuffer(%d): len %d cap %d, want len 0 cap %d", c.n, len(b), cap(b), c.want)
		}
	}
	if !pooling() {
		return
	}
	obs.PutBuffer(obs.GetBuffer(1 << 20))
	if n := testing.AllocsPerRun(100, func() { obs.PutBuffer(obs.GetBuffer(1 << 20)) }); n != 0 {
		t.Errorf("getting a pooled 1 MiB buffer and putting it back: %v allocations, want 0", n)
	}
	obs.PutBuffer(make([]byte, 0, 3<<10)) // not a class: dropped
	if b := obs.GetBuffer(3 << 10); cap(b) != 4<<10 {
		t.Errorf("GetBuffer(3 KiB) after putting a 3 KiB buffer back: cap %d, want 4096", cap(b))
	}
}

// TestGrow: Grow keeps a buffer with room as it is; otherwise it copies the
// bytes into a class at least twice the capacity and hands a class buffer
// back to its pool, but not a buffer of any other capacity.
func TestGrow(t *testing.T) {
	// One P: sync.Pool hands a Get the buffer the same P last Put.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b := append(obs.GetBuffer(4<<10), "vprof"...)
	if got := obs.Grow(b, 4<<10-5); unsafe.SliceData(got) != unsafe.SliceData(b) {
		t.Error("Grow moved a buffer that had room")
	}
	b = b[:4<<10]
	copy(b[4<<10-5:], "tail!")
	old := unsafe.SliceData(b)
	got := obs.Grow(b, 1)
	if len(got) != 4<<10 || cap(got) != 8<<10 || string(got[:5]) != "vprof" || string(got[4<<10-5:]) != "tail!" {
		t.Fatalf("Grow(4 KiB full, 1): len %d cap %d, want the same bytes with cap 8192", len(got), cap(got))
	}
	if pooling() {
		if again := obs.GetBuffer(4 << 10); unsafe.SliceData(again) != old {
			t.Error("Grow did not hand the outgrown 4 KiB buffer back to its pool")
		}
	}

	odd := append(make([]byte, 0, 5000), "vprof"...)
	got = obs.Grow(odd, 5000)
	if string(got) != "vprof" || cap(got) != 16<<10 {
		t.Errorf("Grow(5000-byte buffer, 5000): %q cap %d, want \"vprof\" cap 16384 (twice 5000, rounded up)", got, cap(got))
	}
	for range 4 {
		if unsafe.SliceData(obs.GetBuffer(4<<10)) == unsafe.SliceData(odd) {
			t.Error("Grow pooled a buffer whose capacity is not a class")
		}
	}
}

// TestReadBodyRecycled: a body read into buffers handed back after the
// previous read allocates almost nothing, and each read still returns
// exactly the bytes sent.
func TestReadBodyRecycled(t *testing.T) {
	if !pooling() {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	blob := bytes.Repeat([]byte("vprof"), 1<<18) // 1.25 MiB: ends in the 2 MiB class
	got := allocated(func() {
		b, err := obs.ReadBody(bytes.NewReader(blob), int64(len(blob)), 64<<20)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, blob) {
			t.Fatal("read bytes differ from the body sent")
		}
		obs.PutBuffer(b)
	})
	if got > 64<<10 {
		t.Errorf("reading a %d-byte body into recycled buffers allocated %d bytes", len(blob), got)
	}
}
