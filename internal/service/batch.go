package service

import (
	"encoding/json"
	"errors"
	"net/http"

	"vprof/internal/obs"
)

// BatchItem is one profile in a POST /v1/profiles:batch request. Blob is
// base64 in the JSON wire form (encoding/json's []byte convention).
type BatchItem struct {
	Workload string `json:"workload"`
	Label    string `json:"label"`
	Run      string `json:"run"`
	Blob     []byte `json:"blob"`
}

// BatchRequest is the POST /v1/profiles:batch body.
type BatchRequest struct {
	Profiles []BatchItem `json:"profiles"`
}

// BatchItemResult reports one item's outcome. Items are independent: a
// rejected bundle fails its slot, not the batch.
type BatchItemResult struct {
	PushResult
	Error string `json:"error,omitempty"`
	Code  string `json:"code,omitempty"`
}

// BatchResponse mirrors the request order item-for-item.
type BatchResponse struct {
	Results []BatchItemResult `json:"results"`
}

// handleBatch ingests many profiles in one round trip, amortizing
// connection and admission cost for fleets of agents pushing every few
// seconds. One worker slot covers the whole batch (items are stored
// sequentially — ingest cost is dominated by fsync, which batches well).
// A batch refused as a whole counts as one rejection, a refused item as
// one more.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, err := obs.ReadBody(r.Body, r.ContentLength, MaxUploadBytes)
	if errors.Is(err, obs.ErrBodyTooLarge) {
		s.rejected.Add(1)
		writeErr(w, http.StatusRequestEntityTooLarge, CodeBadRequest, "batch exceeds %d bytes", MaxUploadBytes)
		return
	}
	if err != nil {
		s.rejected.Add(1)
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "read body: %v", err)
		return
	}
	var req BatchRequest
	err = json.Unmarshal(body, &req) // decodes each blob into bytes of its own
	obs.PutBuffer(body)
	if err != nil {
		s.rejected.Add(1)
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "decode batch: %v", err)
		return
	}
	if len(req.Profiles) == 0 {
		s.rejected.Add(1)
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "empty batch")
		return
	}
	release, err := s.acquireCtx(r.Context())
	if err != nil {
		writeCoded(w, err)
		return
	}
	defer release()

	resp := BatchResponse{Results: make([]BatchItemResult, len(req.Profiles))}
	unavailable := 0
	for i, item := range req.Profiles {
		res := &resp.Results[i]
		label, err := s.checkPush(item.Workload, item.Label, item.Run)
		switch {
		case err != nil:
		case len(item.Blob) == 0:
			s.rejected.Add(1)
			err = withCode(CodeInvalidBundle, errors.New("empty blob"))
		default:
			res.PushResult, err = s.storePush(item.Workload, label, item.Run, item.Blob)
		}
		if err != nil {
			res.Error, res.Code = err.Error(), errCode(err)
			if res.Code == CodeUnavailable {
				unavailable++
			}
		}
	}
	// If every item failed on backend unavailability, surface it as a
	// retryable 503 (idempotent ingest makes the whole batch safe to
	// replay); partial success stays 200 with per-item codes.
	if unavailable == len(req.Profiles) {
		w.Header().Set("Retry-After", retryAfterSeconds)
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	s.log.Debug("batch ingest", "items", len(req.Profiles))
	writeJSON(w, http.StatusOK, resp)
}
