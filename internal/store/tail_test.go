package store

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"testing"
)

// tailOf fetches the tail after seq, failing the test on error.
func tailOf(t *testing.T, st *Store, seq uint64) []Record {
	t.Helper()
	recs, err := st.TailSince(seq)
	if err != nil {
		t.Fatalf("TailSince(%d): %v", seq, err)
	}
	return recs
}

func TestTailSinceServesDurableSuffix(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	seedActivity(t, st) // 4 records: ingest, fit, fleet, round

	all := tailOf(t, st, 0)
	if len(all) != 4 {
		t.Fatalf("TailSince(0) returned %d records, want 4", len(all))
	}
	for i, rec := range all {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("tail[%d].Seq = %d, want %d (gapless from 1)", i, rec.Seq, i+1)
		}
	}
	if got := tailOf(t, st, 2); len(got) != 2 || got[0].Seq != 3 {
		t.Fatalf("TailSince(2) = %d records starting at %d, want 2 starting at 3", len(got), got[0].Seq)
	}
	if got := tailOf(t, st, 4); len(got) != 0 {
		t.Fatalf("TailSince(lastSeq) returned %d records, want none", len(got))
	}
	// A follower ahead of the store (impossible in a healthy pair, but a
	// poll must not invent records for it).
	if got := tailOf(t, st, 99); len(got) != 0 {
		t.Fatalf("TailSince(beyond) returned %d records, want none", len(got))
	}
}

func TestTailSinceCompactionReturnsErrCompacted(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	seedActivity(t, st)
	if err := st.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if _, err := st.TailSince(0); !errors.Is(err, ErrCompacted) {
		t.Fatalf("TailSince(0) after compaction: %v, want ErrCompacted", err)
	}
	// From the snapshot boundary on, the (empty) tail is servable again.
	if got := tailOf(t, st, 4); len(got) != 0 {
		t.Fatalf("TailSince(snapshot seq) returned %d records, want none", len(got))
	}
	seedActivity2 := func() {
		if err := st.AppendArchive("c1"); err == nil {
			t.Fatal("archive of running campaign unexpectedly accepted")
		}
		if err := st.AppendFit(FitRecord{Slope: 1, Intercept: 1}); err != nil {
			t.Fatalf("AppendFit: %v", err)
		}
	}
	seedActivity2()
	got := tailOf(t, st, 4)
	if len(got) != 1 || got[0].Seq != 5 || got[0].Type != TypeFit {
		t.Fatalf("post-compaction tail = %+v, want one fit record at seq 5", got)
	}
}

func TestTailSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	seedActivity(t, st)
	want := tailOf(t, st, 0)
	st.Close()

	st2 := reopen(t, dir)
	got := tailOf(t, st2, 0)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tail after reopen = %+v, want %+v", got, want)
	}
}

func TestEncodeRecordFrameRoundTrips(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	seedActivity(t, st)
	recs := tailOf(t, st, 0)
	var buf []byte
	for _, rec := range recs {
		buf, err = EncodeRecordFrame(buf, rec)
		if err != nil {
			t.Fatalf("EncodeRecordFrame: %v", err)
		}
	}
	got, err := DecodeAll(bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("DecodeAll of re-encoded frames: %v", err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("re-encoded frames decode to %+v, want %+v", got, recs)
	}
}

// TestEncodeFramesMatchesWALBytes pins the shipping contract: the
// frames of a durable tail are byte-identical to what wal.log holds,
// so a follower can append them verbatim to its replica WAL.
func TestEncodeFramesMatchesWALBytes(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	seedActivity(t, st)
	got, err := EncodeFrames(tailOf(t, st, 0))
	if err != nil {
		t.Fatalf("EncodeFrames: %v", err)
	}
	want, err := os.ReadFile(WALPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoded tail (%d bytes) differs from wal.log (%d bytes)", len(got), len(want))
	}
	if _, err := EncodeFrames([]Record{{Seq: 9, Type: TypeIngest, Data: []byte("{")}}); err == nil {
		t.Fatal("a record with invalid JSON data encoded")
	}
}

func TestSeedDirRecoversSeededState(t *testing.T) {
	src := t.TempDir()
	st, err := Open(src, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	seedActivity(t, st)
	state := stateOf(t, st)

	dst := t.TempDir()
	// A stale WAL in the replica directory must not replay on top of the
	// seeded snapshot.
	stale, err := Open(dst, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open stale: %v", err)
	}
	if err := stale.AppendFit(FitRecord{Slope: 9}); err != nil {
		t.Fatalf("AppendFit: %v", err)
	}
	stale.Close()

	if err := SeedDir(dst, state, Options{NoSync: true}); err != nil {
		t.Fatalf("SeedDir: %v", err)
	}
	replica := reopen(t, dst)
	sameState(t, stateOf(t, replica), state, "seeded replica")
	if got := tailOf(t, replica, state.LastSeq); len(got) != 0 {
		t.Fatalf("seeded replica has %d tail records, want none", len(got))
	}
}
