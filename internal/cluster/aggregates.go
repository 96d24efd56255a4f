package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"

	"hputune/internal/inference"
	"hputune/internal/server"
)

// Aggregate-exchange wire format: the reply body of
// GET /v1/replication/aggregates is one server.ReplicationAggregatesResponse
// document — a node's ingest partition as additive sufficient
// statistics plus a monotone version. DecodeAggregates is the merger's
// gatekeeper over it: beyond well-formed JSON it enforces the aggregate
// invariants the ingest path enforces on trace records, because one
// malformed partition (a negative count, a +Inf total) would poison the
// merged fit for every node in the cluster, not just the one serving
// the bad payload.

// AggregatesError reports an exchange payload that decoded as JSON but
// violates the aggregate invariants. Node is the self-reported serving
// node (may be empty when the document never carried one).
type AggregatesError struct {
	Node  string
	Cause string
}

func (e *AggregatesError) Error() string {
	return fmt.Sprintf("cluster: aggregates from %q: %s", e.Node, e.Cause)
}

// DecodeAggregates decodes and validates one aggregate-exchange reply.
// The document must be a single JSON object with no unknown fields and
// no trailing data; every price must be >= 1 and every aggregate finite
// and non-negative — the same check (inference.Belief.CheckMerge) the
// ingest path and WAL replay run, so a merged map is always a legal
// FitAggregates input. It never panics on arbitrary input (fuzzed in
// FuzzAggregatesDecode).
func DecodeAggregates(data []byte) (server.ReplicationAggregatesResponse, error) {
	var doc server.ReplicationAggregatesResponse
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return server.ReplicationAggregatesResponse{}, fmt.Errorf("cluster: decode aggregates: %w", err)
	}
	if dec.More() {
		return server.ReplicationAggregatesResponse{}, fmt.Errorf("cluster: decode aggregates: trailing data after the document")
	}
	if err := inference.Belief(nil).CheckMerge(doc.Aggs); err != nil {
		return server.ReplicationAggregatesResponse{}, &AggregatesError{Node: doc.Node, Cause: err.Error()}
	}
	var total uint64
	for _, agg := range doc.Aggs {
		sum := total + uint64(agg.N)
		if sum < total {
			return server.ReplicationAggregatesResponse{}, &AggregatesError{Node: doc.Node, Cause: "observation counts overflow"}
		}
		total = sum
	}
	// Every ingested record contributes exactly one observation, so the
	// counts can never exceed the node's lifetime record counter.
	if total > doc.Records {
		return server.ReplicationAggregatesResponse{}, &AggregatesError{Node: doc.Node,
			Cause: fmt.Sprintf("aggregates hold %d observations but the node reports only %d records", total, doc.Records)}
	}
	return doc, nil
}
