package cluster

import (
	"context"
	"fmt"
	"sort"

	"vprof/internal/store"
)

// RebalanceReport summarizes one anti-entropy pass.
type RebalanceReport struct {
	Shards        int   // shards scanned
	SyncedShards  int   // shards that needed at least one copy
	CopiedEntries int   // (entry, owner) copies performed
	CopiedBytes   int64 // blob bytes moved
	Errors        int   // copy failures (pass is rerun until zero)
}

func (rep *RebalanceReport) String() string {
	return fmt.Sprintf("rebalance: %d shard(s) scanned, %d synced, %d entr(ies) copied (%d bytes), %d error(s)",
		rep.Shards, rep.SyncedShards, rep.CopiedEntries, rep.CopiedBytes, rep.Errors)
}

// Rebalance runs one full anti-entropy pass against the current layout:
// every entry anywhere in the cluster is copied to every current owner that
// lacks the winning copy. The pass is a pure function of (cluster contents,
// layout) — no old-placement bookkeeping — so it is idempotent and safe to
// rerun after any interruption, including a node crash mid-pass: the next
// pass simply finds less work. Shards sync in ascending order (the
// deterministic "state machine" tests pin: scan → sync → done per shard).
//
// A nonzero Errors count is returned as an error so operators rerun the
// pass; everything already copied stays copied.
func (r *Router) Rebalance(ctx context.Context) (*RebalanceReport, error) {
	layout, nodes := r.snapshot()
	rep := &RebalanceReport{Shards: layout.Shards}

	// Scan: one sweep of every member's full entry list, bucketed by shard.
	byShard := make(map[int][]*entryCopies, layout.Shards)
	keyOf := map[*entryCopies]string{}
	keys, _ := r.sweep("")
	for k, copies := range keys {
		wl, label, run := splitKey(k)
		s := ShardOf(wl, store.Label(label), run, r.shards)
		byShard[s] = append(byShard[s], copies)
		keyOf[copies] = k
	}

	var firstErr error
	for s := 0; s < layout.Shards; s++ {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		work := byShard[s]
		// Deterministic sync order within the shard.
		sort.Slice(work, func(i, j int) bool { return keyOf[work[i]] < keyOf[work[j]] })
		synced := false
		for _, copies := range work {
			winner := resolveWinner(copies.byNode)
			if winner == nil {
				continue
			}
			// Unlike read-repair, every owner counts here, answered or not:
			// an unreachable owner is an error, so operators rerun the pass
			// until it is clean.
			lagging := laggingOwners(layout.Owners[s], winner, copies.byNode)
			if len(lagging) == 0 {
				continue
			}
			copied, size, errs := r.copyWinner(winner, copies.byNode, lagging, nodes)
			rep.Errors += len(errs)
			if len(errs) > 0 && firstErr == nil {
				firstErr = fmt.Errorf("cluster: rebalance shard %d: %w", s, errs[0])
			}
			if len(copied) > 0 {
				synced = true
			}
			rep.CopiedEntries += len(copied)
			rep.CopiedBytes += int64(len(copied) * size)
			r.m.rebalanceCopies.Add(float64(len(copied)))
		}
		if synced {
			rep.SyncedShards++
			r.log.Info("rebalance: shard synced", "shard", s)
		}
	}
	if firstErr != nil {
		return rep, firstErr
	}
	return rep, nil
}
