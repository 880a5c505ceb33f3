package sim

import (
	"fmt"
	"sort"
	"strings"

	"vprof/internal/store"
)

// key names one pushed run.
type key struct {
	workload string
	label    store.Label
	run      string
}

func keyOf(e *store.Entry) key { return key{e.Workload, e.Label, e.Run} }

func (k key) String() string { return k.workload + "/" + string(k.label) + "/" + k.run }

// Violation is one broken invariant, named so a failing schedule says which
// promise broke.
type Violation struct{ Invariant, Detail string }

func (v *Violation) Error() string { return v.Invariant + ": " + v.Detail }

func violation(invariant, format string, args ...any) error {
	return &Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)}
}

// Checker is the one place the simulator's invariants are checked. Steps
// record what the deployment promised (acked pushes) and what it served
// (reads, renders, dup flags); after every step Check holds both against
// each other and against every live store:
//
//   - durable: every acked push is on a live store, and every read served
//     for an acked key returns the acked blob;
//   - divergence: no live store holds another blob under an acked key;
//   - offline: every served diagnosis equals the offline pipeline's render
//     of the same profiles, at whatever worker count the front end runs;
//   - exactly-once: no node acks the same key and blob as new twice, and
//     every push's dup flag is the one a fault-free run reports.
//
// Check reads stores in memory and never writes, so it moves no crash point.
type Checker struct {
	acked   map[key]string // key → acked blob id
	order   []key
	pending [][4]string // invariant, what, served, model
}

func newChecker() *Checker { return &Checker{acked: map[key]string{}} }

// observe records a served value for the next Check.
func (c *Checker) observe(invariant, what, got, want string) {
	c.pending = append(c.pending, [4]string{invariant, what, got, want})
}

// pushed records an acknowledged push. A fault-free run flags it dup
// exactly when the identical blob was acked under the key before.
func (c *Checker) pushed(k key, id string, dup bool) {
	prev, seen := c.acked[k]
	c.observe("exactly-once", "dup flag of push "+k.String(), fmt.Sprint(dup), fmt.Sprint(seen && prev == id))
	if !seen {
		c.order = append(c.order, k)
	}
	c.acked[k] = id
}

// ackedIDs lists the acked blob ids of one workload and label in run order
// (shorter run ids first, as the store orders them).
func (c *Checker) ackedIDs(workload string, label store.Label) []string {
	var keys []key
	for _, k := range c.order {
		if k.workload == workload && k.label == label {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i].run, keys[j].run
		return len(a) < len(b) || len(a) == len(b) && a < b
	})
	ids := make([]string, len(keys))
	for i, k := range keys {
		ids[i] = c.acked[k]
	}
	return ids
}

// Check verifies every invariant against the deployment's current state.
func (c *Checker) Check(d *Deployment) error {
	pending := c.pending
	c.pending = nil
	for _, o := range pending {
		if o[2] != o[3] {
			return violation(o[0], "%s: %s", o[1], mismatch(o[2], o[3]))
		}
	}
	names, stores := d.stores(d.Nodes)
	for _, k := range c.order {
		want, held := c.acked[k], false
		for i, st := range stores {
			if e, ok := st.Lookup(k.workload, k.label, k.run); ok && e.ID != want {
				return violation("divergence", "%s holds %s under %s, acked %s", names[i], e.ID, k, want)
			} else if ok {
				held = true
			}
		}
		if !held {
			return violation("durable", "acked push %s (%s) is on no live store", k, want)
		}
	}
	var twice string
	d.Net.locked(func() {
		for c, n := range d.Net.counts {
			if strings.HasPrefix(c, "fresh ") && n > 1 && (twice == "" || c < twice) {
				twice = c
			}
		}
	})
	if twice != "" {
		return violation("exactly-once", "%s ingested twice", strings.TrimPrefix(twice, "fresh "))
	}
	return nil
}

// mismatch describes how got differs from want: both values when short,
// else the first differing byte with its context.
func mismatch(got, want string) string {
	if len(got)+len(want) <= 160 {
		return fmt.Sprintf("got %q, want %q", got, want)
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	clip := func(s string) string { return s[max(i-20, 0):min(i+40, len(s))] }
	return fmt.Sprintf("differs at byte %d of %d: got %q, want %q", i, len(want), clip(got), clip(want))
}
