package service

import (
	"encoding/json"
	"errors"
	"net/http"

	"vprof/internal/obs"
	"vprof/internal/store"
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
		status := statusFor(err)
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", retryAfterSeconds)
		}
		writeErr(w, status, errCode(err), "%v", err)
		return
	}
	defer release()

	resp := BatchResponse{Results: make([]BatchItemResult, len(req.Profiles))}
	unavailable := 0
	for i, item := range req.Profiles {
		res := &resp.Results[i]
		label, err := store.ParseLabel(item.Label)
		if err != nil {
			s.rejected.Add(1)
			res.Error, res.Code = err.Error(), CodeBadRequest
			continue
		}
		if item.Workload == "" || item.Run == "" {
			s.rejected.Add(1)
			res.Error, res.Code = "workload and run are required", CodeBadRequest
			continue
		}
		if len(item.Blob) == 0 {
			s.rejected.Add(1)
			res.Error, res.Code = "empty blob", CodeInvalidBundle
			continue
		}
		entry, dup, err := s.store.PutBlob(item.Workload, label, item.Run, item.Blob)
		if err != nil {
			switch {
			case errors.Is(err, store.ErrUnavailable):
				unavailable++
				res.Error, res.Code = err.Error(), CodeUnavailable
			case errors.Is(err, store.ErrInvalidProfile):
				s.rejected.Add(1)
				res.Error, res.Code = err.Error(), CodeInvalidBundle
			default:
				s.rejected.Add(1)
				res.Error, res.Code = err.Error(), CodeBadRequest
			}
			continue
		}
		if dup {
			s.deduped.Add(1)
		} else {
			s.ingested.Add(1)
		}
		res.PushResult = PushResult{
			ID: entry.ID, Workload: entry.Workload, Label: string(entry.Label), Run: entry.Run, Dup: dup,
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
