package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hputune/internal/store"
)

// fetchReplState decodes GET /v1/replication/state.
func fetchReplState(t *testing.T, ts *httptest.Server) (ReplicationStateResponse, *http.Response) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/replication/state")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc ReplicationStateResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatalf("decode state: %v", err)
		}
	}
	return doc, resp
}

// fetchReplWAL returns the raw framed bytes from GET /v1/replication/wal.
func fetchReplWAL(t *testing.T, ts *httptest.Server, from string) ([]byte, *http.Response) {
	t.Helper()
	url := ts.URL + "/v1/replication/wal"
	if from != "" {
		url += "?from=" + from
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw, resp
}

func TestReplicationEndpointsServeDurableTail(t *testing.T) {
	dir := t.TempDir()
	st, srv, ts := recoverTestServer(t, dir, store.Options{})
	srv.cfg.Node = "n1"

	startFleetAndWait(t, srv, ts, crashFleetDoc)

	state, resp := fetchReplState(t, ts)
	if resp.StatusCode != 200 {
		t.Fatalf("state status %d", resp.StatusCode)
	}
	if resp.Header.Get(nodeHeader) != "n1" || state.Node != "n1" {
		t.Fatalf("node header %q body %q, want n1", resp.Header.Get(nodeHeader), state.Node)
	}
	if state.State == nil || state.LastSeq != state.State.LastSeq {
		t.Fatalf("lastSeq %d inconsistent with state %+v", state.LastSeq, state.State)
	}

	raw, resp := fetchReplWAL(t, ts, "0")
	if resp.StatusCode != 200 {
		t.Fatalf("wal status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("content type %q", ct)
	}
	var recs []store.Record
	for d := store.NewReader(bytes.NewReader(raw)); ; {
		rec, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("decode shipped frames: %v", err)
		}
		recs = append(recs, rec)
	}
	if len(recs) == 0 {
		t.Fatal("no records shipped after a full fleet")
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i)+1 {
			t.Fatalf("record %d has seq %d, want gapless from 1", i, rec.Seq)
		}
	}
	if got := recs[len(recs)-1].Seq; got != state.LastSeq {
		t.Fatalf("tail ends at seq %d, state says %d", got, state.LastSeq)
	}
	if h := resp.Header.Get(lastSeqHeader); h != "" {
		want := recs[len(recs)-1].Seq
		if got, _ := parseUint(h); got != want {
			t.Fatalf("%s header %q, want %d", lastSeqHeader, h, want)
		}
	} else {
		t.Fatalf("missing %s header", lastSeqHeader)
	}

	// A cursor at the durable tip yields an empty, successful reply.
	raw, resp = fetchReplWAL(t, ts, resp.Header.Get(lastSeqHeader))
	if resp.StatusCode != 200 || len(raw) != 0 {
		t.Fatalf("tip fetch: status %d, %d bytes", resp.StatusCode, len(raw))
	}

	// Compaction makes old cursors unservable: 410 with code "compacted".
	if err := st.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	raw, resp = fetchReplWAL(t, ts, "0")
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("post-compaction fetch from 0: status %d: %s", resp.StatusCode, raw)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code != CodeCompacted {
		t.Fatalf("compacted envelope %s (err %v)", raw, err)
	}

	// A malformed cursor is a bad_spec 400.
	raw, resp = fetchReplWAL(t, ts, "notanumber")
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), CodeBadSpec) {
		t.Fatalf("bad cursor: status %d: %s", resp.StatusCode, raw)
	}
}

// parseUint mirrors the handler's cursor parsing for header checks.
func parseUint(s string) (uint64, error) {
	var v uint64
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, io.ErrUnexpectedEOF
		}
		v = v*10 + uint64(s[i]-'0')
	}
	return v, nil
}

func TestReplicationEndpointsWithoutStoreAre404(t *testing.T) {
	_, ts := newTestServer(t, Config{Node: "mem"})
	for _, path := range []string{"/v1/replication/state", "/v1/replication/wal"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(raw), CodeNotFound) {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, raw)
		}
	}
}

// TestReplicationExemptFromRateLimit pins the follower-feed exemption: a
// rate limit tight enough to throttle every client must not slow the
// replication reads.
func TestReplicationExemptFromRateLimit(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s, err := Recover(Config{Traffic: TrafficConfig{RatePerClient: 0.001, RateBurst: 1}}, st)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	for i := 0; i < 20; i++ {
		_, resp := fetchReplWAL(t, ts, "0")
		if resp.StatusCode != 200 {
			t.Fatalf("replication poll %d rate-limited: status %d", i, resp.StatusCode)
		}
	}
}
