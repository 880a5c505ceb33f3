package cluster_test

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"vprof/internal/analysis"
	"vprof/internal/service"
	"vprof/internal/sim"
	"vprof/internal/store"
)

// newCluster starts n nodes and a coordinator over them on a simulated
// network.
func newCluster(t *testing.T, n int) *sim.Deployment {
	t.Helper()
	d, err := sim.NewCluster(t.TempDir(), n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// lookup reads one node's local store directly (bypassing the router).
func lookup(t *testing.T, n *sim.Node, workload string, label store.Label, run string) (*store.Entry, bool) {
	t.Helper()
	st := n.Store()
	if st == nil {
		t.Fatalf("node %s is down", n.ID)
	}
	return st.Lookup(workload, label, run)
}

// The node-loss crash matrices are schedules: each kills node-2 at every
// mutating disk operation of one phase. The schedule files say what each
// crash point must leave behind.

func TestNodeLossMidIngestMatrix(t *testing.T) { sim.Run(t, "../sim/testdata/crash-ingest.sched") }

func TestNodeLossMidRebalanceMatrix(t *testing.T) {
	sim.Run(t, "../sim/testdata/crash-rebalance.sched")
}

func TestNodeLossMidReadRepairMatrix(t *testing.T) {
	sim.Run(t, "../sim/testdata/crash-read-repair.sched")
}

// TestQuorumWriteReplication runs quorum-write.sched, and checks that an
// acked cluster entry carries no per-node manifest position.
func TestQuorumWriteReplication(t *testing.T) {
	sim.Run(t, "../sim/testdata/quorum-write.sched")
	entry, _, err := newCluster(t, 3).Router.PutBlob("redis", store.LabelNormal, "0", sim.SyntheticBlob(1))
	if err != nil || entry.Seq != 0 {
		t.Fatalf("cluster write: entry %+v, err %v, want Seq 0", entry, err)
	}
}

// TestInvalidBundleRejectedTyped: one replica rejecting a malformed bundle
// rejects the write with the typed validation error (not a quorum failure),
// so the service's 400 mapping applies.
func TestInvalidBundleRejected(t *testing.T) {
	d := newCluster(t, 3)
	_, _, err := d.Router.PutBlob("redis", store.LabelNormal, "0", []byte("not a profile"))
	if !errors.Is(err, store.ErrInvalidProfile) {
		t.Fatalf("garbage blob: err=%v, want ErrInvalidProfile", err)
	}
	if errors.Is(err, store.ErrUnavailable) {
		t.Fatal("validation failure misclassified as unavailability")
	}
}

// TestDivergenceResolutionAndReadRepair: when owner copies of a key diverge,
// every read resolves the same winner (majority blob, ties to the greatest
// ID) and lagging owners are repaired in place.
func TestDivergenceResolutionAndReadRepair(t *testing.T) {
	d := newCluster(t, 3)
	blob := sim.SyntheticBlob(10)
	entry, _, err := d.Router.PutBlob("redis", store.LabelNormal, "0", blob)
	if err != nil {
		t.Fatal(err)
	}

	// Scribble a different (valid) blob over one owner's copy, directly in
	// its store: a divergent replica, as a replayed partial write would leave.
	owners := d.Owners("redis", store.LabelNormal, "0")
	lagging := owners[len(owners)-1]
	divergent, _, err := lagging.Store().PutBlob("redis", store.LabelNormal, "0", sim.SyntheticBlob(11))
	if err != nil {
		t.Fatal(err)
	}
	if divergent.ID == entry.ID {
		t.Fatal("test setup: divergent blob hashed identically")
	}

	got, ok := d.Router.Lookup("redis", store.LabelNormal, "0")
	if !ok {
		t.Fatal("lookup lost the key")
	}
	if got.ID != entry.ID {
		t.Fatalf("winner %s, want majority copy %s", got.ID, entry.ID)
	}
	// The read repaired the divergent owner back to the winner.
	repaired, ok := lookup(t, lagging, "redis", store.LabelNormal, "0")
	if !ok || repaired.ID != entry.ID {
		t.Fatalf("lagging owner not repaired: ok=%v id=%s want %s", ok, repaired.ID, entry.ID)
	}
}

func TestReadRepairBackfillsMissingReplica(t *testing.T) {
	sim.Run(t, "../sim/testdata/read-repair-backfill.sched")
}

// TestReadRepairSkipsUnreachableOwners: while a replica is down, a merged
// read neither fetches a blob to repair it nor counts a failed repair; the
// dead owner's copies wait for a read that reaches it.
func TestReadRepairSkipsUnreachableOwners(t *testing.T) {
	d := newCluster(t, 3)
	d.Nodes[2].Kill()
	for i := 0; i < 4; i++ {
		if _, _, err := d.Router.PutBlob("redis", store.LabelNormal, fmt.Sprint(i), sim.SyntheticBlob(int64(50+i))); err != nil {
			t.Fatal(err)
		}
	}
	before := d.Net.Count("blob-bytes")
	if got := d.Router.Baselines("redis"); len(got) != 4 {
		t.Fatalf("baselines: got %d, want 4", len(got))
	}
	if moved := d.Net.Count("blob-bytes") - before; moved != 0 {
		t.Errorf("merged read moved %d blob bytes toward a dead replica, want 0", moved)
	}
	if n := d.Reg.Counter("vprof_cluster_read_repair_failures_total", "").Value(); n != 0 {
		t.Errorf("vprof_cluster_read_repair_failures_total = %v, want 0", n)
	}
}

// TestCorpusFoldMatchesLocal: the coordinator's cross-node corpus fold is
// byte-for-byte the corpus a single store would fold from the same sketches.
func TestCorpusFoldMatchesLocal(t *testing.T) {
	resolver := service.NewBugsResolver()
	d := newCluster(t, 3)
	for i := 0; i < 5; i++ {
		if _, _, err := d.Router.PutBlob("b1", store.LabelNormal, fmt.Sprint(i), sim.SyntheticBlob(int64(30+i))); err != nil {
			t.Fatal(err)
		}
	}
	baselines := d.Router.Baselines("b1")
	ids := make([]string, 0, len(baselines))
	for _, b := range baselines {
		ids = append(ids, b.ID)
	}

	folded, err := d.Router.Corpus("b1", ids)
	if err != nil {
		t.Fatal(err)
	}

	dbg, _, err := resolver.Resolve("b1")
	if err != nil {
		t.Fatal(err)
	}
	local := analysis.NewCorpus()
	for _, id := range ids {
		sk, err := d.Router.GetSketch(id)
		if err != nil {
			t.Fatal(err)
		}
		local.AddSketch(sk, dbg)
	}
	if folded.Runs != local.Runs {
		t.Fatalf("folded corpus runs %d != local %d", folded.Runs, local.Runs)
	}
	if !reflect.DeepEqual(folded.Ranks, local.Ranks) {
		t.Fatalf("folded corpus ranks diverge from local fold\nfolded: %v\nlocal:  %v", folded.Ranks, local.Ranks)
	}

	// With one replica lost, the fold still completes from the survivors.
	d.Nodes[0].Kill()
	partial, err := d.Router.Corpus("b1", ids)
	if err != nil {
		t.Fatal(err)
	}
	if partial.Runs != local.Runs || !reflect.DeepEqual(partial.Ranks, local.Ranks) {
		t.Fatal("corpus fold changed after single-replica loss")
	}
}

// TestConcurrentReadRepairVsIngest runs merged reads (each of which may
// repair) against concurrent quorum writes; under -race this is the proof
// the router's caches, hints and layout snapshots are safely shared.
func TestConcurrentReadRepairVsIngest(t *testing.T) {
	d := newCluster(t, 3)
	// Seed divergence so reads have repairs to do.
	for i := 0; i < 4; i++ {
		run := fmt.Sprint(i)
		if _, _, err := d.Router.PutBlob("redis", store.LabelNormal, run, sim.SyntheticBlob(int64(i))); err != nil {
			t.Fatal(err)
		}
		owners := d.Owners("redis", store.LabelNormal, run)
		en := owners[i%len(owners)]
		_, _, err := en.Store().PutBlob("redis", store.LabelNormal, run, sim.SyntheticBlob(int64(100+i)))
		if err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				run := fmt.Sprintf("w%d-%d", g, i)
				if _, _, err := d.Router.PutBlob("mysql", store.LabelCandidate, run, sim.SyntheticBlob(int64(g*10+i))); err != nil {
					errs <- fmt.Errorf("ingest %s: %w", run, err)
				}
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if got := d.Router.Baselines("redis"); len(got) != 4 {
					errs <- fmt.Errorf("read saw %d baselines, want 4", len(got))
				}
				d.Router.Workloads()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Everything converged: every owner of every redis run holds the winner.
	for i := 0; i < 4; i++ {
		run := fmt.Sprint(i)
		winner, ok := d.Router.Lookup("redis", store.LabelNormal, run)
		if !ok {
			t.Fatalf("run %s lost", run)
		}
		for _, en := range d.Owners("redis", store.LabelNormal, run) {
			if got, ok := lookup(t, en, "redis", store.LabelNormal, run); !ok || got.ID != winner.ID {
				t.Errorf("owner %s of run %s: ok=%v id=%v, want %s", en.ID, run, ok, got, winner.ID)
			}
		}
	}
}

func TestHealthDegradesNotFails(t *testing.T) { sim.Run(t, "../sim/testdata/health-degrades.sched") }

func TestRebalancePopulatesNewNode(t *testing.T) { sim.Run(t, "../sim/testdata/rebalance-join.sched") }
