package profilefmt_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"

	"vprof/internal/bugs"
	"vprof/internal/profilefmt"
	"vprof/internal/profilefmt/profilefmttest"
	"vprof/internal/sampler"
	"vprof/internal/sketch"
)

// pinnedProfile is merged run 0 of one workload with the sha256 of its
// bundle as Marshal writes it (version-2 sample records), of its bundle
// with version-1 sample records, and of its sketch frame.
type pinnedProfile struct {
	id                     string
	buggy                  bool
	bundle, bundleV1, skch string
}

// pinned are the hashes of the byte format: blob IDs are bundle hashes, and
// the sketch frames sit in every sketches.log, so none may change. The
// version-1 bundle hashes are the ones first recorded; stores and agents
// that wrote them must still decode to the same profiles.
var pinned = []pinnedProfile{
	{"b1", false, "a06857cbea343e5b556e4d5cd9f1a224273e3474b89c1db5e3494f6bdb908b90", "3feee617628706a7d5353cfae497dc3ee8dad0b68eebba461e159b8c1182eb0e", "48ec092d0af4a6e177429d329bfa8825bb63e1b803ce2901b1185bd1539b9e96"},
	{"b1", true, "bee9c467a5cb3f76bee4893f9c71abe2fe81ad2e325838a5a6160bddd726b064", "4e1cda8771b4d2bf2e0f11dca64eafb952d44f3f57b1e9024cbfe5fe801b4f75", "a03c73ce23ba1c0c699d5e76d16ded3a2b13a0b12290ac5b5848db3313fcd6a2"},
	{"b8", false, "946a926ccc811e4cae5b1e2d5db2f2f7c36eb3d9dcaa4f919ef98f0ad4ba6b5d", "1f8029aeb39beaae6e45fcc8feeabe6a98e342baa6e9778e40d79247d772035a", "19edbf5db35528a00dd97000fadab2c1c5193d079842a04f4627cbfc09160c30"},
	{"b8", true, "6f8029d2ab8c16ade148c00323a9c1e421854a1af99498d942ed307e73b5b524", "2b5f1ce62ec1c8f2c16da871f6cf59316e7fd2b1e4ae9c3522df2ee10622c3c7", "29c6a9a40c8ed4836d3ca08abe2129e4b431404f7cd9a9c4f81b580fb8c5508e"},
	{"u3", false, "c0dc29047981349026340827acbce37939d28a64705447c7c299a21ef8959cd8", "0c37caf41abd39aff491fbbf08cfced3e665a187a2b50be90a89158860c8eb27", "0c03353bb23f40aebee1af4f961715c0dbafbbfa821928729ba906d92d6c5274"},
	{"u3", true, "77f5104bebddadda68d51b843ad0ec0ab4dd517a345655d666f9255c36092ba0", "9a9e845f6bd147c437af5dad96e692f3eb3a297a76900ca6ef6f20141eb49c8f", "456ab7c81fc2cca71c516052dc9598ad7c1b323b7ccd5b650b611ff11efddc7e"},
}

var (
	runProfilesOnce sync.Once
	runProfiles     map[string]*sampler.Profile
)

func profileKey(id string, buggy bool) string {
	if buggy {
		return id + "-buggy"
	}
	return id
}

// runProfile returns merged run 0 of a workload, profiled once per test
// binary.
func runProfile(t testing.TB, id string, buggy bool) *sampler.Profile {
	t.Helper()
	runProfilesOnce.Do(func() {
		runProfiles = map[string]*sampler.Profile{}
		for _, pp := range pinned {
			built, err := bugs.ByID(pp.id).Build()
			if err != nil {
				t.Fatal(err)
			}
			p, _ := built.ProfileNormal(0)
			if pp.buggy {
				p, _ = built.ProfileBuggy(0)
			}
			runProfiles[profileKey(pp.id, pp.buggy)] = p
		}
	})
	return runProfiles[profileKey(id, buggy)]
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestFormatPinned: the bundle and sketch encodings of six real profiles
// hash as recorded, each encoder returns exactly the bytes it wrote, and
// both decoders reproduce the input, from version-1 bundles too.
func TestFormatPinned(t *testing.T) {
	for _, pp := range pinned {
		p := runProfile(t, pp.id, pp.buggy)
		name := profileKey(pp.id, pp.buggy)
		blob, err := profilefmt.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := sha(blob); got != pp.bundle {
			t.Errorf("%s: bundle sha256 %s, want %s", name, got, pp.bundle)
		}
		if len(blob) != cap(blob) {
			t.Errorf("%s: Marshal sized %d bytes for a %d-byte bundle", name, cap(blob), len(blob))
		}
		q, err := profilefmt.Unmarshal(blob)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertEqualProfiles(t, p, q)

		v1 := profilefmttest.MarshalV1(p)
		if got := sha(v1); got != pp.bundleV1 {
			t.Errorf("%s: version-1 bundle sha256 %s, want %s", name, got, pp.bundleV1)
		}
		q, err = profilefmt.Unmarshal(v1)
		if err != nil {
			t.Fatalf("%s: version 1: %v", name, err)
		}
		assertEqualProfiles(t, p, q)

		frame, err := profilefmt.MarshalSketch(sketch.FromProfile(p))
		if err != nil {
			t.Fatal(err)
		}
		if got := sha(frame); got != pp.skch {
			t.Errorf("%s: sketch sha256 %s, want %s", name, got, pp.skch)
		}
		if len(frame) != cap(frame) {
			t.Errorf("%s: MarshalSketch sized %d bytes for a %d-byte sketch", name, cap(frame), len(frame))
		}
		sk, err := profilefmt.UnmarshalSketch(frame)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if again, _ := profilefmt.MarshalSketch(sk); !bytes.Equal(again, frame) {
			t.Errorf("%s: re-encoding the decoded sketch changed its bytes", name)
		}
	}
}

// TestDecodersDoNotAlias: servers recycle a push body once its profile is
// stored, which is safe only because Unmarshal and UnmarshalSketch copy
// everything they keep. Each decodes a u3 input that is then overwritten,
// and must still equal a decode of a pristine copy.
func TestDecodersDoNotAlias(t *testing.T) {
	p := runProfile(t, "u3", true)
	blob, err := profilefmt.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := profilefmt.MarshalSketch(sketch.FromProfile(p))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		in     []byte
		decode func([]byte) (any, error)
	}{
		{"bundle", blob, func(b []byte) (any, error) { return profilefmt.Unmarshal(b) }},
		{"sketch", frame, func(b []byte) (any, error) { return profilefmt.UnmarshalSketch(b) }},
	} {
		pristine := bytes.Clone(c.in)
		got, err := c.decode(c.in)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i := range c.in {
			c.in[i] = ^c.in[i]
		}
		want, err := c.decode(pristine)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the decoded value changed when its input was overwritten", c.name)
		}
	}
}

// TestCodecAllocs: encoding makes one allocation and decoding a number
// independent of the sample count. Collection is off while counting: the
// runtime's own allocations during a cycle would otherwise be counted too.
func TestCodecAllocs(t *testing.T) {
	p := runProfile(t, "u3", true)
	blob, err := profilefmt.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if n := testing.AllocsPerRun(5, func() { profilefmt.Marshal(p) }); n > 1 {
		t.Errorf("Marshal of %d samples: %v allocations, want <= 1", len(p.Samples), n)
	}
	if n := testing.AllocsPerRun(5, func() { profilefmt.Unmarshal(blob) }); n > 32 {
		t.Errorf("Unmarshal of %d samples: %v allocations, want <= 32", len(p.Samples), n)
	}
}

// pooling reports whether sync.Pool keeps what it is given: under the race
// detector it drops a random quarter of its Puts.
func pooling() bool {
	bi, ok := debug.ReadBuildInfo()
	return !ok || !slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// TestMarshalColdAllocation: a Marshal once a collection has emptied the
// buffer pool allocates an encode buffer of its bundle's size class, near
// 8 bytes a sample, and the bundle it copies out, under 3 times the bundle
// in all: not room for the largest records, 45 bytes a sample.
func TestMarshalColdAllocation(t *testing.T) {
	if !pooling() {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	for _, name := range []struct {
		id    string
		buggy bool
	}{{"u3", true}, {"b1", false}, {"b8", true}} {
		p := runProfile(t, name.id, name.buggy)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC() // the first moves pooled buffers to the victim cache, the second drops them
		runtime.ReadMemStats(&before)
		blob, err := profilefmt.Marshal(p)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 3*uint64(len(blob)) {
			t.Errorf("%s: a cold Marshal allocated %d bytes for a %d-byte bundle, want < 3x",
				profileKey(name.id, name.buggy), got, len(blob))
		}
	}
}

// TestUnmarshalAllocatesOnlyWhatInputBacks: a sample section that claims
// MaxSamples records but carries one is rejected before the decoder
// reserves space for the claimed count.
func TestUnmarshalAllocatesOnlyWhatInputBacks(t *testing.T) {
	p := sampleProfile()
	var hist, layout bytes.Buffer
	if err := profilefmt.EncodeHist(&hist, p); err != nil {
		t.Fatal(err)
	}
	if err := profilefmt.EncodeLayout(&layout, p); err != nil {
		t.Fatal(err)
	}
	blob := append([]byte(profilefmt.MagicBundle), 1, 0, 0, 0)
	blob = append(blob, hist.Bytes()...)
	blob = append(blob, profilefmt.MagicVar...)
	blob = binary.LittleEndian.AppendUint32(blob, profilefmt.Version)
	blob = binary.LittleEndian.AppendUint64(blob, profilefmt.MaxSamples)
	blob = append(blob, make([]byte, 64)...)
	blob = append(blob, layout.Bytes()...)

	const runs = 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := profilefmt.Unmarshal(blob); err == nil {
			t.Fatal("bundle claiming MaxSamples samples with one record was accepted")
		}
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun >= 64<<10 {
		t.Errorf("rejecting the bundle allocated %d bytes per decode, want < 64 KiB", perRun)
	}
}

// TestUnmarshalBundleSampleCap: a bundle holds at most MaxBundleSamples
// samples, so that the 7-byte minimum records of a 64 MiB upload cannot
// decode to more than 40 MiB. A bundle at the cap decodes; one over it is
// refused before its sample array is allocated.
func TestUnmarshalBundleSampleCap(t *testing.T) {
	small := profilefmttest.MinimalBundle(3)
	p, err := profilefmt.Unmarshal(small)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := profilefmt.Marshal(p); !bytes.Equal(again, small) {
		t.Errorf("re-encoding a minimum-record bundle changed its bytes")
	}

	p, err = profilefmt.Unmarshal(profilefmttest.MinimalBundle(profilefmt.MaxBundleSamples))
	if err != nil || len(p.Samples) != profilefmt.MaxBundleSamples {
		t.Fatalf("bundle at the cap: %v", err)
	}
	p = nil

	// A bundle at the cap whose count claims more records than its bytes
	// hold is refused by the minimum record size instead.
	short := profilefmttest.MinimalBundle(1)
	at := bytes.Index(short, []byte(profilefmt.MagicVar)) + 8
	binary.LittleEndian.PutUint64(short[at:], profilefmt.MaxBundleSamples)
	for _, c := range []struct {
		name, want string
		bundle     []byte
	}{
		{"bundle over the cap", "sample count", profilefmttest.MinimalBundle(profilefmt.MaxBundleSamples + 1)},
		{"bundle claiming more records than it holds", "exceed", short},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err = profilefmt.Unmarshal(c.bundle)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: err = %v, want %q", c.name, err, c.want)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
			t.Errorf("%s: refusing it allocated %d bytes, want < 64 KiB", c.name, n)
		}
	}
}

// TestUnmarshalRejectsNonCanonical: each profile has one version-2
// encoding, so a varint with a redundant continuation byte, a histogram
// written out of order and a pointer flag other than 0 or 1 are refused.
func TestUnmarshalRejectsNonCanonical(t *testing.T) {
	blob := profilefmttest.MinimalBundle(1)
	// The one record is the seven bytes before the layout section.
	var layout bytes.Buffer
	if err := profilefmt.EncodeLayout(&layout, &sampler.Profile{Layout: []sampler.LayoutEntry{{Func: "f", Name: "v"}}}); err != nil {
		t.Fatal(err)
	}
	rec := len(blob) - layout.Len() - 7
	for _, c := range []struct {
		name string
		edit func([]byte) []byte
		want string
	}{
		{"non-minimal varint", func(b []byte) []byte {
			return slices.Insert(b, rec+1, 0x80) // varnode 0 as 0x80 0x00
		}, "non-minimal"},
		{"pointer flag 2", func(b []byte) []byte {
			b[len(b)-1] = 2
			return b
		}, "pointer flag"},
	} {
		if _, err := profilefmt.Unmarshal(c.edit(bytes.Clone(blob))); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}

	p := sampleProfile()
	v2, err := profilefmt.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	// The histogram's pairs (pc, count) follow its header, file name and
	// six counters; swap the first two.
	at := 8 + 8 + 4 + len(p.File) + 6*8
	swapped := bytes.Clone(v2)
	copy(swapped[at:], v2[at+16:at+32])
	copy(swapped[at+16:], v2[at:at+16])
	if _, err := profilefmt.Unmarshal(swapped); err == nil || !strings.Contains(err.Error(), "order") {
		t.Errorf("histogram out of order: err = %v", err)
	}
}
