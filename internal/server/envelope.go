package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"
)

// Stable machine-readable error codes. Every non-2xx reply from the /v1
// surface carries exactly one of these in its envelope; clients branch
// on the code, never on message text. Documented in doc.go and README.
const (
	// CodeOverloaded: admission or campaign capacity exhausted (503).
	// Back off for the reply's retry_after_ms and retry.
	CodeOverloaded = "overloaded"
	// CodeRateLimited: the client exceeded its per-client rate (429);
	// retry_after_ms is computed from the client's token bucket.
	CodeRateLimited = "rate_limited"
	// CodeBadSpec: the request body failed parsing, validation or a
	// resource ceiling (400); retrying unchanged cannot succeed.
	CodeBadSpec = "bad_spec"
	// CodeTooLarge: the request body exceeded the byte cap (413).
	CodeTooLarge = "too_large"
	// CodeNotFound: unknown route or campaign id (404).
	CodeNotFound = "not_found"
	// CodeMethodNotAllowed: the route exists, the method does not (405).
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeSuspended: the server is draining and no longer accepts this
	// work (503 on campaign starts during shutdown); retrying against a
	// live replica may succeed, retrying here will not.
	CodeSuspended = "suspended"
	// CodeCompacted: the requested WAL tail was compacted into a
	// snapshot (410 on /v1/replication/wal); refetch the full state from
	// /v1/replication/state and resume shipping from its sequence.
	CodeCompacted = "compacted"
	// CodeDurabilityLost: the node's WAL has failed and it can no
	// longer journal (503 on /v1/healthz, and on ingest and merged-fit
	// writes the WAL refused); its replica, not this node, holds the
	// acknowledged history.
	CodeDurabilityLost = "durability_lost"
	// CodeInternal: an unexpected server-side failure (5xx fallback).
	CodeInternal = "internal"
)

// APIError is the uniform error envelope body: a stable Code to branch
// on, a human-readable Message, and — on overload and rate-limit
// replies — how long to wait before retrying.
type APIError struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// ErrorEnvelope is the uniform non-2xx reply document:
// {"error":{"code","message","retry_after_ms"}}.
type ErrorEnvelope struct {
	Error APIError `json:"error"`
}

// CodeForStatus maps an HTTP status to its default error code — unique
// except for 503, where capacity replies (overloaded) are written
// explicitly and only drain-time replies fall through to this map.
// Exported for the cluster router, whose own errors (unknown node,
// unreachable node) must carry the same envelope codes as the nodes it
// fronts.
func CodeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return CodeBadSpec
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusMethodNotAllowed:
		return CodeMethodNotAllowed
	case http.StatusRequestEntityTooLarge:
		return CodeTooLarge
	case http.StatusTooManyRequests:
		return CodeRateLimited
	case http.StatusGone:
		return CodeCompacted
	case http.StatusServiceUnavailable:
		return CodeOverloaded
	}
	if status >= 400 && status < 500 {
		return CodeBadSpec
	}
	return CodeInternal
}

// writeEnvelope writes the uniform error envelope. retry, when
// positive, is rounded up to whole milliseconds in the body and whole
// seconds in the Retry-After header (the header's granularity).
func writeEnvelope(w http.ResponseWriter, status int, code string, retry time.Duration, format string, args ...any) {
	e := APIError{Code: code, Message: fmt.Sprintf(format, args...)}
	if retry > 0 {
		e.RetryAfterMS = int64((retry + time.Millisecond - 1) / time.Millisecond)
		secs := (retry + time.Second - 1) / time.Second
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	writeJSON(w, status, ErrorEnvelope{Error: e})
}

// writeError writes the envelope with the status's default code and no
// retry hint; the status keeps its historical meaning (400 bad_spec,
// 404 not_found, 413 too_large).
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeEnvelope(w, status, CodeForStatus(status), 0, format, args...)
}

// writeOverloaded writes the 503 capacity reply with a retry hint.
func writeOverloaded(w http.ResponseWriter, retry time.Duration, format string, args ...any) {
	writeEnvelope(w, http.StatusServiceUnavailable, CodeOverloaded, retry, format, args...)
}

// writeDurabilityLost writes the 503 reply of a node whose WAL has
// failed (no retry hint: the failure is sticky).
func writeDurabilityLost(w http.ResponseWriter, format string, args ...any) {
	writeEnvelope(w, http.StatusServiceUnavailable, CodeDurabilityLost, 0, format, args...)
}

// writeSuspended writes the 503 drain-time reply (no retry hint: this
// process is going away).
func writeSuspended(w http.ResponseWriter, format string, args ...any) {
	writeEnvelope(w, http.StatusServiceUnavailable, CodeSuspended, 0, format, args...)
}

// maxInterceptBody caps how much of an intercepted plain-text error
// body is preserved as the envelope message.
const maxInterceptBody = 256

// envelopeWriter wraps every response so (1) the final status and byte
// count are observable for histograms and the access log, and (2) any
// non-2xx reply written without a JSON body — the ServeMux's own
// plain-text 404/405 replies — is rewritten into the uniform envelope.
// Handlers that write the envelope themselves set Content-Type
// application/json first and pass through untouched.
type envelopeWriter struct {
	rw          http.ResponseWriter
	status      int
	bytes       int64
	wrote       bool
	intercept   bool
	intercepted []byte
}

func (w *envelopeWriter) Header() http.Header { return w.rw.Header() }

func (w *envelopeWriter) WriteHeader(status int) {
	if w.wrote {
		return
	}
	w.wrote = true
	w.status = status
	if status >= 400 && !strings.HasPrefix(w.rw.Header().Get("Content-Type"), "application/json") {
		// A plain-text error from outside our handlers: swap the body for
		// the envelope. Headers must change before they go out.
		w.intercept = true
		h := w.rw.Header()
		h.Set("Content-Type", "application/json")
		h.Del("Content-Length")
	}
	w.rw.WriteHeader(status)
}

func (w *envelopeWriter) Write(p []byte) (int, error) {
	if !w.wrote {
		w.WriteHeader(http.StatusOK)
	}
	if w.intercept {
		// Swallow the original body (keeping a prefix as the message);
		// finish() writes the envelope after the handler returns.
		if room := maxInterceptBody - len(w.intercepted); room > 0 {
			if len(p) > room {
				p = p[:room]
			}
			w.intercepted = append(w.intercepted, p...)
		}
		return len(p), nil
	}
	n, err := w.rw.Write(p)
	w.bytes += int64(n)
	return n, err
}

// finish completes an intercepted reply: the original plain-text body
// becomes the envelope message under the status's default code.
func (w *envelopeWriter) finish() {
	if !w.intercept {
		return
	}
	msg := strings.TrimSpace(string(w.intercepted))
	if msg == "" {
		msg = http.StatusText(w.status)
	}
	enc, err := json.Marshal(ErrorEnvelope{Error: APIError{Code: CodeForStatus(w.status), Message: msg}})
	if err != nil {
		return
	}
	enc = append(enc, '\n')
	n, _ := w.rw.Write(enc)
	w.bytes += int64(n)
	w.intercept = false
}

// Status is the response status, defaulting to 200 when the handler
// never called WriteHeader explicitly.
func (w *envelopeWriter) Status() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}
