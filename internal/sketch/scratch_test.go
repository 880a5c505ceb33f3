package sketch_test

// FromProfile draws its scratch from a pool: these tests fold profiles of
// different shapes through the same scratch, one after another and from
// several goroutines at once, and check that no fold sees what an earlier
// one left behind.

import (
	"reflect"
	"sync"
	"testing"

	"vprof/internal/bugs"
	"vprof/internal/sampler"
	"vprof/internal/sketch"
)

// run0Profiles profiles run 0 of every issue, normal then buggy, once per
// test binary; the keys are "<id>-normal" and "<id>-buggy".
var run0Profiles = sync.OnceValues(func() (map[string]*sampler.Profile, error) {
	out := map[string]*sampler.Profile{}
	for _, w := range append(bugs.All(), bugs.UnresolvedIssues()...) {
		b, err := w.Build()
		if err != nil {
			return nil, err
		}
		out[w.ID+"-normal"], _ = b.ProfileNormal(0)
		out[w.ID+"-buggy"], _ = b.ProfileBuggy(0)
	}
	return out, nil
})

func profiles(t *testing.T) map[string]*sampler.Profile {
	t.Helper()
	ps, err := run0Profiles()
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// TestFoldScratchReuse folds, in one goroutine, the largest single-process
// profile (u3-buggy, 86k samples), a small one (b13 normal), a 3-process
// one (b8-buggy) and the largest again: each fold equals the map fold,
// whatever the one before it left in the scratch.
func TestFoldScratchReuse(t *testing.T) {
	ps := profiles(t)
	for _, name := range []string{"u3-buggy", "b13-normal", "b8-buggy", "u3-buggy"} {
		checkFold(t, name, ps[name])
	}
}

// TestConcurrentFolds: 8 goroutines fold the 36 run-0 profiles, each in a
// different order, and every fold equals the sequential one.
func TestConcurrentFolds(t *testing.T) {
	ps := profiles(t)
	var names []string
	want := map[string]*sketch.Profile{}
	for _, w := range append(bugs.All(), bugs.UnresolvedIssues()...) {
		for _, name := range []string{w.ID + "-normal", w.ID + "-buggy"} {
			names = append(names, name)
			want[name] = sketch.FromProfile(ps[name])
		}
	}
	if len(names) != 36 {
		t.Fatalf("%d run-0 profiles, want 36", len(names))
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers*len(names))
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Worker g starts at a different profile, odd ones walk
			// backwards.
			for k := range names {
				i := (g*5 + k) % len(names)
				if g%2 == 1 {
					i = len(names) - 1 - i
				}
				if got := sketch.FromProfile(ps[names[i]]); !reflect.DeepEqual(got, want[names[i]]) {
					errs <- names[i]
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for name := range errs {
		t.Errorf("%s: a concurrent fold differs from the sequential one", name)
	}
}
