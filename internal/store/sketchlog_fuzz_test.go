package store_test

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"vprof/internal/store"
)

// FuzzSketchLogOpen writes its input as the sketches.log of a valid store
// and opens the store. The input is a run of items, each a little-endian
// uint16 length and that many payload bytes, written as CRC-valid frames;
// what is left at the end, too short for its item, is written raw as a torn
// tail. The invariants: Open never panics, every sketch it indexes decodes
// to its own blob id (so reading it needs no rebuild), and Fsck after Open
// is clean.
func FuzzSketchLogOpen(f *testing.F) {
	tmpl := f.TempDir()
	s, err := store.Open(tmpl, store.Options{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	for seed := int64(0); seed < 2; seed++ {
		if _, _, err := s.Put("w", store.LabelNormal, string(rune('0'+seed)), testProfile(seed)); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	files := map[string][]byte{}
	for _, name := range storeFiles {
		raw, err := os.ReadFile(filepath.Join(tmpl, name))
		if err != nil {
			f.Fatal(err)
		}
		files[name] = raw
	}
	header, frames := files["sketches.log"][:8], files["sketches.log"][8:]
	var payloads [][]byte
	for len(frames) >= 8 {
		size := binary.LittleEndian.Uint32(frames)
		payloads = append(payloads, frames[8:8+size])
		frames = frames[8+size:]
	}
	item := func(payload []byte) []byte {
		return append(binary.LittleEndian.AppendUint16(nil, uint16(len(payload))), payload...)
	}
	join := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	p0, p1 := payloads[0], payloads[1]
	f.Add(join(item(p0), item(p1)))
	f.Add(join(item(p0), item([]byte("not a sketch")), item(p1)))
	f.Add(join(item(p0), item(p1)[:len(p1)/2]))
	f.Add(join(item(p1), item(p1)))
	f.Add(join(item(p0[:len(p0)-1])))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, in []byte) {
		dir := t.TempDir()
		log := append([]byte(nil), header...)
		for len(in) >= 2 {
			n := int(binary.LittleEndian.Uint16(in))
			if 2+n > len(in) {
				break
			}
			log = append(log, sketchFrame(in[2:2+n])...)
			in = in[2+n:]
		}
		log = append(log, in...)
		files["sketches.log"] = log
		for name, raw := range files {
			if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		s, err := store.Open(dir, store.Options{NoSync: true})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		indexed := s.SketchStats().Indexed
		entries := s.Entries("")
		for _, e := range entries {
			sk, err := s.GetSketch(e.ID)
			if err != nil {
				t.Fatalf("GetSketch(%s): %v", e.ID[:8], err)
			}
			if sk.BlobID != e.ID {
				t.Fatalf("GetSketch(%s) returned the sketch of %s", e.ID[:8], sk.BlobID)
			}
		}
		if got, want := s.SketchStats().Rebuilds, int64(len(entries)-indexed); got != want {
			t.Fatalf("%d of %d indexed sketches did not decode to their blob: %d rebuilds, want %d",
				got-want, indexed, got, want)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		rep, err := store.Fsck(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Clean() {
			t.Fatalf("store not clean after open:\n%s", rep.Render())
		}
	})
}
