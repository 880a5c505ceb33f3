package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"

	"vprof/internal/analysis"
	"vprof/internal/debuginfo"
	"vprof/internal/obs"
	"vprof/internal/profilefmt"
	"vprof/internal/schema"
	"vprof/internal/store"
)

// maxPutBytes bounds one replicated blob upload (matches the service's
// single-profile upload limit).
const maxPutBytes = 64 << 20

// DebugResolver maps a workload name to its debug info, which nodes need to
// fold corpus sketches locally (rank extraction is debug-info dependent).
// service.Resolver satisfies it structurally.
type DebugResolver interface {
	Resolve(workload string) (*debuginfo.Info, *schema.Schema, error)
}

// NodeConfig wires one cluster node.
type NodeConfig struct {
	// ID is the node's stable name; placement hashes it, so renaming a node
	// reassigns its shards.
	ID string
	// Store is the node's durability layer, opened by the caller so tests
	// can inject a faultfs crash injector underneath.
	Store *store.Store
	// Resolver supplies the debug info node-side corpus folds (POST
	// corpus) rank against.
	Resolver DebugResolver
	Logger   *slog.Logger
	Metrics  *obs.Registry
}

// Node serves one shard-holding store over the internal cluster API.
type Node struct {
	id       string
	st       *store.Store
	resolver DebugResolver
	log      *slog.Logger
	reg      *obs.Registry

	puts    *obs.Counter
	corpora *obs.Counter
}

// NewNode validates the config and returns a servable node.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.ID == "" {
		return nil, errors.New("cluster: node needs an ID")
	}
	if cfg.Store == nil {
		return nil, errors.New("cluster: node needs a store")
	}
	if cfg.Resolver == nil {
		return nil, errors.New("cluster: node needs a resolver")
	}
	log := cfg.Logger
	if log == nil {
		log = obs.Nop()
	}
	return &Node{
		id:       cfg.ID,
		st:       cfg.Store,
		resolver: cfg.Resolver,
		log:      log.With("node", cfg.ID),
		reg:      cfg.Metrics,
		puts:     cfg.Metrics.Counter("vprof_node_puts_total", "Replicated blob writes accepted by this node."),
		corpora:  cfg.Metrics.Counter("vprof_node_corpus_folds_total", "Node-side corpus folds served."),
	}, nil
}

// ID returns the node's placement name.
func (n *Node) ID() string { return n.id }

// Store exposes the underlying store (tests reach through it).
func (n *Node) Store() *store.Store { return n.st }

// nodeError is the wire shape of an internal-API failure.
type nodeError struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

func writeNodeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeNodeError(w http.ResponseWriter, status int, code string, err error) {
	writeNodeJSON(w, status, nodeError{Error: err.Error(), Code: code})
}

// putResponse acknowledges one replicated write.
type putResponse struct {
	Entry *store.Entry `json:"entry"`
	Dup   bool         `json:"dup"`
}

// corpusRequest asks the node to fold whichever of ids it holds locally.
type corpusRequest struct {
	Workload string   `json:"workload"`
	IDs      []string `json:"ids"`
}

// corpusResponse returns the partial corpus plus the ids this node could not
// serve (the coordinator forwards those to the next replica).
type corpusResponse struct {
	Runs    int              `json:"runs"`
	Ranks   map[string][]int `json:"ranks"`
	Missing []string         `json:"missing,omitempty"`
}

// nodeHealth reports liveness plus whether the store came up from a dirty
// recovery (the router degrades /healthz on it).
type nodeHealth struct {
	ID        string `json:"id"`
	Status    string `json:"status"`
	Error     string `json:"error,omitempty"`
	Recovered bool   `json:"recovered"`
}

// Handler returns the node's internal API: exactly the routes the router's
// node client calls, plus /metrics. It is intentionally minimal and
// trusted: routers are the only clients, so there is no auth or shedding
// tier here — the public surface stays in internal/service.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /internal/v1/put", n.handlePut)
	mux.HandleFunc("GET /internal/v1/blob/{id}", n.handleBlob)
	mux.HandleFunc("GET /internal/v1/sketch/{id}", n.handleSketch)
	mux.HandleFunc("GET /internal/v1/entries", n.handleEntries)
	mux.HandleFunc("POST /internal/v1/corpus", n.handleCorpus)
	mux.HandleFunc("GET /internal/v1/health", n.handleHealth)
	mux.HandleFunc("POST /internal/v1/flush", n.handleFlush)
	if n.reg != nil {
		mux.Handle("GET /metrics", n.reg.Handler())
	}
	return mux
}

func (n *Node) handlePut(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	label, err := store.ParseLabel(q.Get("label"))
	if err != nil {
		writeNodeError(w, http.StatusBadRequest, "invalid", err)
		return
	}
	workload, run := q.Get("workload"), q.Get("run")
	if workload == "" || run == "" {
		writeNodeError(w, http.StatusBadRequest, "invalid", errors.New("cluster: put needs workload and run"))
		return
	}
	blob, err := obs.ReadBody(r.Body, r.ContentLength, maxPutBytes)
	if errors.Is(err, obs.ErrBodyTooLarge) {
		writeNodeError(w, http.StatusRequestEntityTooLarge, "invalid", errors.New("cluster: blob too large"))
		return
	}
	if err != nil {
		writeNodeError(w, http.StatusBadRequest, "invalid", err)
		return
	}
	defer obs.PutBuffer(blob) // the store keeps no reference once PutBlob returns
	entry, dup, err := n.st.PutBlob(workload, label, run, blob)
	if err != nil {
		if errors.Is(err, store.ErrInvalidProfile) {
			writeNodeError(w, http.StatusBadRequest, "invalid", err)
			return
		}
		writeNodeError(w, http.StatusInternalServerError, "internal", err)
		return
	}
	n.puts.Inc()
	writeNodeJSON(w, http.StatusOK, putResponse{Entry: entry, Dup: dup})
}

func (n *Node) handleBlob(w http.ResponseWriter, r *http.Request) {
	blob, err := n.st.GetBlob(r.PathValue("id"))
	if err != nil {
		writeNodeError(w, http.StatusNotFound, "not_found", err)
		return
	}
	writeNodeBlob(w, blob)
}

func (n *Node) handleSketch(w http.ResponseWriter, r *http.Request) {
	sk, err := n.st.GetSketch(r.PathValue("id"))
	if err != nil {
		writeNodeError(w, http.StatusNotFound, "not_found", err)
		return
	}
	blob := profilefmt.EncodeSketch(sk)
	writeNodeBlob(w, blob)
	obs.PutBuffer(blob) // the response writer keeps no reference
}

// writeNodeBlob answers with raw bytes, declaring their length so the
// router's read allocates for exactly that many.
func writeNodeBlob(w http.ResponseWriter, blob []byte) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	_, _ = w.Write(blob)
}

func (n *Node) handleEntries(w http.ResponseWriter, r *http.Request) {
	writeNodeJSON(w, http.StatusOK, n.st.Entries(r.URL.Query().Get("workload")))
}

func (n *Node) handleCorpus(w http.ResponseWriter, r *http.Request) {
	var req corpusRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeNodeError(w, http.StatusBadRequest, "invalid", err)
		return
	}
	dbg, _, err := n.resolver.Resolve(req.Workload)
	if err != nil {
		writeNodeError(w, http.StatusBadRequest, "invalid", fmt.Errorf("cluster: resolve %s: %w", req.Workload, err))
		return
	}
	corpus := analysis.NewCorpus()
	var missing []string
	for _, id := range req.IDs {
		sk, err := n.st.GetSketch(id)
		if err != nil {
			missing = append(missing, id)
			continue
		}
		corpus.AddSketch(sk, dbg)
	}
	n.corpora.Inc()
	writeNodeJSON(w, http.StatusOK, corpusResponse{Runs: corpus.Runs, Ranks: corpus.Ranks, Missing: missing})
}

func (n *Node) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := nodeHealth{ID: n.id, Status: "ok"}
	if rep := n.st.Recovery(); rep != nil && !rep.Clean() {
		h.Recovered = true
	}
	if err := n.st.Health(); err != nil {
		h.Status = "unavailable"
		h.Error = err.Error()
		writeNodeJSON(w, http.StatusServiceUnavailable, h)
		return
	}
	writeNodeJSON(w, http.StatusOK, h)
}

func (n *Node) handleFlush(w http.ResponseWriter, r *http.Request) {
	if err := n.st.Flush(); err != nil {
		writeNodeError(w, http.StatusInternalServerError, "internal", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
