package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"testing"
)

// DecodeAll decodes every record in r. The returned error is nil at a
// clean end, a *TailError when the final frame is torn (the returned
// records are still the valid prefix), a *CorruptError, or — when the
// underlying reader itself fails — that read error verbatim.
func DecodeAll(r io.Reader) ([]Record, error) {
	d := NewReader(r)
	var recs []Record
	for {
		rec, err := d.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}

// encodeRecords frames a sequence of records the way the store does.
func encodeRecords(t *testing.T, recs ...Record) []byte {
	t.Helper()
	var buf []byte
	for _, rec := range recs {
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		buf = appendFrame(buf, payload)
	}
	return buf
}

// mkRecord builds a minimal valid record of the given type.
func mkRecord(seq uint64, typ string, data string) Record {
	return Record{Seq: seq, Type: typ, Data: json.RawMessage(data)}
}

func TestWALRoundTrip(t *testing.T) {
	want := []Record{
		mkRecord(1, TypeIngest, `{"deltas":{"2":{"N":3,"Total":1.5}},"count":3}`),
		mkRecord(2, TypeFit, `{"slope":2,"intercept":0.5,"r2":0.99,"se":0.01,"n":4,"prices":4}`),
		mkRecord(3, TypeArchive, `{"id":"c1"}`),
	}
	raw := encodeRecords(t, want...)
	got, err := DecodeAll(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("DecodeAll: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Seq != want[i].Seq || got[i].Type != want[i].Type || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestWALTornTailClassification(t *testing.T) {
	full := encodeRecords(t,
		mkRecord(1, TypeArchive, `{"id":"c1"}`),
		mkRecord(2, TypeArchive, `{"id":"c2"}`),
	)
	first := encodeRecords(t, mkRecord(1, TypeArchive, `{"id":"c1"}`))
	// Every proper prefix that cuts into the second frame must decode
	// the first record and classify the remainder as a torn tail.
	for cut := len(first) + 1; cut < len(full); cut++ {
		recs, err := DecodeAll(bytes.NewReader(full[:cut]))
		var tail *TailError
		if !errors.As(err, &tail) {
			t.Fatalf("cut %d: err %v, want TailError", cut, err)
		}
		if len(recs) != 1 || recs[0].Seq != 1 {
			t.Fatalf("cut %d: got %d records, want the intact first", cut, len(recs))
		}
		if tail.Offset != int64(len(first)) {
			t.Fatalf("cut %d: torn offset %d, want %d", cut, tail.Offset, len(first))
		}
	}
	// A cut inside the first frame leaves zero records.
	for cut := 1; cut < len(first); cut++ {
		recs, err := DecodeAll(bytes.NewReader(full[:cut]))
		var tail *TailError
		if !errors.As(err, &tail) {
			t.Fatalf("cut %d: err %v, want TailError", cut, err)
		}
		if len(recs) != 0 {
			t.Fatalf("cut %d: got %d records, want 0", cut, len(recs))
		}
	}
}

func TestWALCorruptionClassification(t *testing.T) {
	r1 := mkRecord(1, TypeArchive, `{"id":"c1"}`)
	r2 := mkRecord(2, TypeArchive, `{"id":"c2"}`)

	t.Run("mid-file bit flip is corrupt, not torn", func(t *testing.T) {
		raw := encodeRecords(t, r1, r2)
		raw[frameHeaderSize+2] ^= 0xff // inside the first payload
		recs, err := DecodeAll(bytes.NewReader(raw))
		var corrupt *CorruptError
		if !errors.As(err, &corrupt) {
			t.Fatalf("err %v, want CorruptError", err)
		}
		if len(recs) != 0 {
			t.Fatalf("got %d records before the corruption, want 0", len(recs))
		}
	})

	t.Run("final-frame bit flip is a torn tail", func(t *testing.T) {
		raw := encodeRecords(t, r1, r2)
		raw[len(raw)-1] ^= 0xff
		recs, err := DecodeAll(bytes.NewReader(raw))
		var tail *TailError
		if !errors.As(err, &tail) {
			t.Fatalf("err %v, want TailError", err)
		}
		if len(recs) != 1 {
			t.Fatalf("got %d records, want 1", len(recs))
		}
	})

	t.Run("absurd length prefix is corrupt", func(t *testing.T) {
		raw := encodeRecords(t, r1)
		binary.LittleEndian.PutUint32(raw[0:4], maxRecordBytes+1)
		_, err := DecodeAll(bytes.NewReader(raw))
		var corrupt *CorruptError
		if !errors.As(err, &corrupt) {
			t.Fatalf("err %v, want CorruptError", err)
		}
	})

	t.Run("duplicated record is corrupt", func(t *testing.T) {
		raw := encodeRecords(t, r1, r1)
		recs, err := DecodeAll(bytes.NewReader(raw))
		var corrupt *CorruptError
		if !errors.As(err, &corrupt) {
			t.Fatalf("err %v, want CorruptError", err)
		}
		if len(recs) != 1 {
			t.Fatalf("got %d records, want 1", len(recs))
		}
	})

	t.Run("sequence regression is corrupt", func(t *testing.T) {
		raw := encodeRecords(t, r2, r1)
		_, err := DecodeAll(bytes.NewReader(raw))
		var corrupt *CorruptError
		if !errors.As(err, &corrupt) {
			t.Fatalf("err %v, want CorruptError", err)
		}
	})

	t.Run("CRC-valid non-record JSON is corrupt", func(t *testing.T) {
		raw := appendFrame(nil, []byte(`[1,2,3]`))
		_, err := DecodeAll(bytes.NewReader(raw))
		var corrupt *CorruptError
		if !errors.As(err, &corrupt) {
			t.Fatalf("err %v, want CorruptError", err)
		}
	})
}

func TestReaderErrorsAreSticky(t *testing.T) {
	raw := encodeRecords(t, mkRecord(1, TypeArchive, `{"id":"c1"}`))
	raw = raw[:len(raw)-2]
	d := NewReader(bytes.NewReader(raw))
	if _, err := d.Next(); err == nil {
		t.Fatal("want an error from the torn record")
	}
	if _, err := d.Next(); err == io.EOF {
		t.Fatal("error must stick, not decay to EOF")
	}
}

func TestApplyRejectsUnknownAndMalformed(t *testing.T) {
	cases := []Record{
		mkRecord(1, "mystery", `{}`),
		mkRecord(1, TypeIngest, `{"deltas":{"0":{"N":1,"Total":1}},"count":1}`),  // price below 1
		mkRecord(1, TypeIngest, `{"deltas":{"2":{"N":-1,"Total":1}},"count":1}`), // negative N
		mkRecord(1, TypeRound, `{"id":"ghost","snap":{},"checkpoint":{"historyCap":4}}`),
		mkRecord(1, TypeFinished, `{"id":"ghost","checkpoint":{"status":"converged"}}`),
		mkRecord(1, TypeArchive, `{"id":"ghost"}`),
		mkRecord(2, TypeArchive, `{"id":"c1"}`), // sequence gap
		mkRecord(1, TypeFleet, `{"ids":[],"spec":{}}`),
		mkRecord(1, TypeFleet, `{"ids":["c1"]}`), // no spec
	}
	for i, rec := range cases {
		st := NewState()
		if err := st.Apply(rec); err == nil {
			t.Fatalf("case %d (%s seq %d): Apply accepted a bad record", i, rec.Type, rec.Seq)
		}
	}
}

func TestApplyFleetRoundFinishArchiveLifecycle(t *testing.T) {
	st := NewState()
	seq := uint64(0)
	next := func(typ, data string) error {
		seq++
		return st.Apply(mkRecord(seq, typ, data))
	}
	if err := next(TypeFleet, `{"spec":{"campaign":{}},"ids":["c1","c2"]}`); err != nil {
		t.Fatalf("fleet: %v", err)
	}
	if st.Started != 2 || st.NextID != 2 || len(st.Campaigns) != 2 {
		t.Fatalf("after fleet: started %d nextID %d campaigns %d", st.Started, st.NextID, len(st.Campaigns))
	}
	// Three rounds into a cap-2 ring: the oldest snapshot falls out.
	for r := 0; r < 3; r++ {
		data := fmt.Sprintf(`{"id":"c1","snap":{"round":%d},"checkpoint":{"name":"a","status":"running","roundsRun":%d,"historyCap":2,"spent":%d,"remaining":%d,"totalMakespan":1}}`,
			r, r+1, (r+1)*10, 100-(r+1)*10)
		if err := next(TypeRound, data); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	cs := st.Campaigns["c1"]
	if len(cs.Rounds) != 2 || cs.Rounds[0].Round != 1 || cs.Rounds[1].Round != 2 {
		t.Fatalf("ring: %+v", cs.Rounds)
	}
	if cs.Checkpoint.RoundsRun != 3 || cs.Checkpoint.Spent != 30 {
		t.Fatalf("checkpoint: %+v", cs.Checkpoint)
	}
	// A terminal round record (convergence) counts as finished.
	if err := next(TypeRound, `{"id":"c1","snap":{"round":3},"checkpoint":{"name":"a","status":"converged","roundsRun":4,"historyCap":2,"spent":40,"remaining":60}}`); err != nil {
		t.Fatalf("terminal round: %v", err)
	}
	if st.Finished != 1 {
		t.Fatalf("finished %d, want 1", st.Finished)
	}
	// Further rounds for a settled campaign are corruption.
	if err := next(TypeRound, `{"id":"c1","snap":{"round":4},"checkpoint":{"status":"running","roundsRun":5,"historyCap":2}}`); err == nil {
		t.Fatal("round after terminal must fail")
	}
	seq-- // the failed apply consumed no sequence number
	// c2 cancels between rounds.
	if err := next(TypeFinished, `{"id":"c2","checkpoint":{"name":"b","status":"canceled","reason":"canceled before round 0"}}`); err != nil {
		t.Fatalf("finished: %v", err)
	}
	if st.Finished != 2 || st.Canceled != 1 {
		t.Fatalf("finished %d canceled %d", st.Finished, st.Canceled)
	}
	// Archive c1: history moves to the archive, live entry disappears.
	if err := next(TypeArchive, `{"id":"c1"}`); err != nil {
		t.Fatalf("archive: %v", err)
	}
	if len(st.Archived) != 1 || st.Archived[0].ID != "c1" || len(st.Archived[0].Rounds) != 2 {
		t.Fatalf("archived: %+v", st.Archived)
	}
	if st.EvictedRounds != 4 {
		t.Fatalf("evicted rounds %d, want 4", st.EvictedRounds)
	}
	if _, live := st.Campaigns["c1"]; live {
		t.Fatal("archived campaign still live")
	}
	// Prune: c2 still references fleet 0, so it stays.
	st.pruneFleets()
	if len(st.Fleets) != 1 {
		t.Fatalf("fleets %d, want 1", len(st.Fleets))
	}
	// Archive c2 too; now the fleet is unreferenced.
	if err := next(TypeArchive, `{"id":"c2"}`); err != nil {
		t.Fatalf("archive c2: %v", err)
	}
	st.pruneFleets()
	if len(st.Fleets) != 0 {
		t.Fatalf("fleets %d after prune, want 0", len(st.Fleets))
	}
}
