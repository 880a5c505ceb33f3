package cluster

// HintCount returns how many blob ids r holds a fetch hint for.
func HintCount(r *Router) int { return r.hints.Len() }

// Hint returns the node r tries first for blob id.
func Hint(r *Router, id string) (string, bool) { return r.hints.Get(id) }
