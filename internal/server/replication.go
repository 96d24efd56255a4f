package server

import (
	"encoding/json"
	"maps"
	"math"
	"net/http"
	"strconv"

	"hputune/internal/inference"
	"hputune/internal/store"
)

// Replication surface. A cluster follower keeps a byte-identical
// replica of this node's durable state by polling two endpoints:
//
//	GET /v1/replication/state          — the current snapshot State
//	GET /v1/replication/wal?from=SEQ   — framed WAL records after SEQ
//
// and the cluster's cross-node fit exchange uses two more:
//
//	GET  /v1/replication/aggregates    — this node's ingest partition as
//	                                     additive sufficient statistics
//	POST /v1/replication/fit           — publish a cluster-merged fit
//	                                     through the standard guard
//
// All four are rate-limit exempt (see rateLimitExempt): their only
// clients are the cluster's own followers and merger, and throttling
// them would turn client load into replication or fit-exchange lag.
//
// The WAL reply is the store's durable tail encoded in the on-disk
// frame format (length + CRC + JSON record), so a follower appends the
// body verbatim to its own wal.log and the standard recovery path
// replays it. Only acknowledged (fsynced) records are ever served;
// a 410 with code "compacted" tells the follower the tail no longer
// reaches back to its cursor and it must re-seed from /state.

// nodeHeader carries the serving node's cluster name on replication
// replies so a follower can detect it is polling the wrong process.
const nodeHeader = "X-HT-Node"

// lastSeqHeader reports the sequence of the last record in a WAL reply
// (or the request's cursor when the reply is empty).
const lastSeqHeader = "X-HT-Last-Seq"

// ReplicationStateResponse is the GET /v1/replication/state document.
type ReplicationStateResponse struct {
	// Node is the serving node's cluster name (Config.Node).
	Node string `json:"node"`
	// LastSeq is the last durable WAL sequence folded into State.
	LastSeq uint64 `json:"lastSeq"`
	// State is the full durable snapshot; a follower seeds its replica
	// directory from it and resumes WAL shipping at LastSeq.
	State *store.State `json:"state"`
}

func (s *Server) handleReplicationState(w http.ResponseWriter, r *http.Request) {
	if s.st == nil {
		writeError(w, http.StatusNotFound, "no durable store on this node (start it with -state-dir)")
		return
	}
	state, err := s.st.State()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "read state: %v", err)
		return
	}
	w.Header().Set(nodeHeader, s.cfg.Node)
	writeJSON(w, http.StatusOK, ReplicationStateResponse{
		Node:    s.cfg.Node,
		LastSeq: state.LastSeq,
		State:   state,
	})
}

func (s *Server) handleReplicationWAL(w http.ResponseWriter, r *http.Request) {
	if s.st == nil {
		writeError(w, http.StatusNotFound, "no durable store on this node (start it with -state-dir)")
		return
	}
	from := uint64(0)
	if q := r.URL.Query().Get("from"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "from=%q is not a sequence number", q)
			return
		}
		from = v
	}
	recs, err := s.st.TailSince(from)
	if err == store.ErrCompacted {
		writeEnvelope(w, http.StatusGone, CodeCompacted, 0,
			"WAL tail compacted past sequence %d; refetch /v1/replication/state", from)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "read WAL tail: %v", err)
		return
	}
	buf, err := store.EncodeFrames(recs)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	last := from
	if n := len(recs); n > 0 {
		last = recs[n-1].Seq
	}
	w.Header().Set(nodeHeader, s.cfg.Node)
	w.Header().Set(lastSeqHeader, strconv.FormatUint(last, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf)
}

// ReplicationAggregatesResponse is the GET /v1/replication/aggregates
// document: this node's ingest partition as the O(#price levels)
// additive sufficient statistic, with a monotone version so the merger
// can tell fresh partitions from stale ones across polls.
type ReplicationAggregatesResponse struct {
	// Node is the serving node's cluster name (Config.Node).
	Node string `json:"node"`
	// Version orders snapshots of this partition: the last durable WAL
	// sequence on a store-backed node, else the lifetime accepted-record
	// count. It never decreases on one process; a promoted replica may
	// report a smaller version than the primary it replaced (records the
	// primary acknowledged but never shipped are lost with it).
	Version uint64 `json:"version"`
	// Records is the lifetime accepted trace-record count behind Aggs.
	Records uint64 `json:"records"`
	// Aggs is the per-price aggregate map. Summing these maps across
	// every node and fitting the union is exactly equivalent to fitting
	// one process that ingested every partition's records.
	Aggs map[int]inference.PriceAggregate `json:"aggs"`
}

// handleReplicationAggregates serves the node's ingest partition for
// the cluster merger. A store-backed node serves the durable aggregates
// (State waits out in-flight group commits, so a crash can never take
// back what a merge already consumed) versioned by WAL sequence; an
// in-memory node serves the live map versioned by its record count.
func (s *Server) handleReplicationAggregates(w http.ResponseWriter, r *http.Request) {
	resp := ReplicationAggregatesResponse{Node: s.cfg.Node}
	if s.st != nil {
		state, err := s.st.State()
		if err != nil {
			writeError(w, http.StatusInternalServerError, "read state: %v", err)
			return
		}
		resp.Version = state.LastSeq
		resp.Records = state.Records
		resp.Aggs = state.Aggs
	} else {
		s.ingestMu.Lock()
		resp.Aggs = maps.Clone(s.belief)
		s.ingestMu.Unlock()
		resp.Records = s.records.Load()
		resp.Version = resp.Records
	}
	if resp.Aggs == nil {
		resp.Aggs = map[int]inference.PriceAggregate{}
	}
	w.Header().Set(nodeHeader, s.cfg.Node)
	writeJSON(w, http.StatusOK, resp)
}

// MergedFitRequest is the POST /v1/replication/fit body: a fit the
// cluster merger computed over the union of every node's aggregates,
// plus the per-node aggregate versions it consumed (journaled for
// audit).
type MergedFitRequest struct {
	Fit     store.FitRecord   `json:"fit"`
	Sources map[string]uint64 `json:"sources,omitempty"`
}

// MergedFitResponse is the POST /v1/replication/fit reply. Published
// false means the guard kept the previous fit; FitPending carries the
// same reason string an ingest re-fit would have reported.
type MergedFitResponse struct {
	Published  bool               `json:"published"`
	Fit        *inference.FitInfo `json:"fit,omitempty"`
	FitPending string             `json:"fitPending,omitempty"`
}

// handleReplicationFit publishes a cluster-merged fit through the guard
// a local ingest re-fit takes: a fit that violates the rate-model
// contract is refused with the previous fit kept live, and an accepted
// fit is journaled (as a merged-fit record, so recovery restores it
// bit-identically) and then swapped in atomically. A fit the WAL
// refused is answered 503 durability_lost and never served. The body
// is outside input, so its finiteness and point counts are checked
// here before the guard sees it.
func (s *Server) handleReplicationFit(w http.ResponseWriter, r *http.Request) {
	var req MergedFitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, badRequestStatus(err), "parse merged fit: %v", err)
		return
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, "parse merged fit: trailing data after the request document")
		return
	}
	for _, v := range []float64{req.Fit.Slope, req.Fit.Intercept, req.Fit.R2, req.Fit.SE} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			writeError(w, http.StatusBadRequest, "merged fit parameter %v is not finite", v)
			return
		}
	}
	if req.Fit.N < 2 || req.Fit.Prices < 2 {
		writeError(w, http.StatusBadRequest,
			"merged fit over %d points at %d prices; a fit needs >= 2 of each", req.Fit.N, req.Fit.Prices)
		return
	}
	w.Header().Set(nodeHeader, s.cfg.Node)
	if pending := inference.GuardFit(req.Fit); pending != "" {
		writeJSON(w, http.StatusOK, MergedFitResponse{FitPending: pending})
		return
	}
	// ingestMu serializes the journal + publish pair with handleIngest's,
	// so the WAL's fit order always matches the order the models were
	// actually swapped in.
	s.ingestMu.Lock()
	if s.st != nil {
		if err := s.st.AppendMergedFit(req.Fit, req.Sources); err != nil {
			s.ingestMu.Unlock()
			writeDurabilityLost(w, "journal merged fit: %v", err)
			return
		}
	}
	s.fit.Store(&req.Fit)
	s.ingestMu.Unlock()
	info := req.Fit.Info()
	writeJSON(w, http.StatusOK, MergedFitResponse{Published: true, Fit: &info})
}
