package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"hputune/internal/store"
)

func shipRecords(t *testing.T, n int, from uint64) []store.Record {
	t.Helper()
	recs := make([]store.Record, n)
	for i := range recs {
		recs[i] = store.Record{
			Seq:  from + 1 + uint64(i),
			Type: store.TypeRound,
			Data: json.RawMessage(fmt.Sprintf(`{"i":%d}`, i)),
		}
	}
	return recs
}

func TestShipRoundTrip(t *testing.T) {
	recs := shipRecords(t, 5, 7)
	wire, err := store.EncodeFrames(recs)
	if err != nil {
		t.Fatal(err)
	}
	got, good, derr := DecodeShip(wire, 7)
	if derr != nil {
		t.Fatalf("decode: %v", derr)
	}
	if good != int64(len(wire)) {
		t.Fatalf("good offset %d, want %d", good, len(wire))
	}
	if len(got) != len(recs) {
		t.Fatalf("%d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Seq != recs[i].Seq || got[i].Type != recs[i].Type || !bytes.Equal(got[i].Data, recs[i].Data) {
			t.Fatalf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
}

func TestShipRejectsGapAndWrongStart(t *testing.T) {
	recs := shipRecords(t, 3, 10)
	wire, err := store.EncodeFrames(recs)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong cursor: the run starts at 11, the follower is at 11 → wants 12.
	got, good, derr := DecodeShip(wire, 11)
	var se *ShipError
	if !errors.As(derr, &se) || se.Want != 12 || se.Got != 11 {
		t.Fatalf("wrong-start decode: %v", derr)
	}
	if len(got) != 0 || good != 0 {
		t.Fatalf("wrong start kept %d records to offset %d", len(got), good)
	}
	// Gap: drop the middle record.
	gapped, err := store.EncodeFrames([]store.Record{recs[0], recs[2]})
	if err != nil {
		t.Fatal(err)
	}
	got, good, derr = DecodeShip(gapped, 10)
	if !errors.As(derr, &se) || se.Want != 12 || se.Got != 13 {
		t.Fatalf("gap decode: %v", derr)
	}
	if len(got) != 1 || got[0].Seq != 11 {
		t.Fatalf("gap prefix %+v", got)
	}
	// The good offset must bound a clean, appendable prefix.
	again, againGood, derr := DecodeShip(gapped[:good], 10)
	if derr != nil || againGood != good || len(again) != 1 {
		t.Fatalf("prefix re-decode: %v (%d records to %d)", derr, len(again), againGood)
	}
}

func TestShipTornTailKeepsPrefix(t *testing.T) {
	wire, err := store.EncodeFrames(shipRecords(t, 3, 0))
	if err != nil {
		t.Fatal(err)
	}
	torn := wire[:len(wire)-3]
	recs, good, derr := DecodeShip(torn, 0)
	var te *store.TailError
	if !errors.As(derr, &te) {
		t.Fatalf("torn decode: %v", derr)
	}
	if len(recs) != 2 || recs[1].Seq != 2 {
		t.Fatalf("torn prefix %+v", recs)
	}
	if good > int64(len(torn)) || good <= 0 {
		t.Fatalf("good offset %d of %d", good, len(torn))
	}
	if clean, _, derr := DecodeShip(torn[:good], 0); derr != nil || len(clean) != 2 {
		t.Fatalf("prefix re-decode: %v (%d records)", derr, len(clean))
	}
}

// FuzzShipDecode holds DecodeShip to its contract on arbitrary bytes:
// classified errors only, a good offset that always bounds a clean and
// idempotently re-decodable prefix, and an encode fixed point.
func FuzzShipDecode(f *testing.F) {
	valid, _ := store.EncodeFrames([]store.Record{
		{Seq: 1, Type: store.TypeIngest, Data: json.RawMessage(`{"a":1}`)},
		{Seq: 2, Type: store.TypeFit, Data: json.RawMessage(`{"b":"<&>"}`)},
	})
	f.Add(valid, uint64(0))
	f.Add(valid[:len(valid)-4], uint64(0)) // torn tail
	f.Add(valid, uint64(5))                // wrong cursor
	corrupt := append([]byte(nil), valid...)
	corrupt[10] ^= 0xff
	f.Add(corrupt, uint64(0))
	gapped, _ := store.EncodeFrames([]store.Record{
		{Seq: 1, Type: store.TypeRound, Data: json.RawMessage(`1`)},
		{Seq: 3, Type: store.TypeRound, Data: json.RawMessage(`2`)},
	})
	f.Add(gapped, uint64(0))
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{1, 2, 3}, uint64(9))

	f.Fuzz(func(t *testing.T, data []byte, after uint64) {
		recs, good, err := DecodeShip(data, after)
		// 1. Errors are classified: nil, torn tail, corruption, or a
		// contiguity break — never a panic, never an unclassified error.
		var te *store.TailError
		var ce *store.CorruptError
		var se *ShipError
		if err != nil && !errors.As(err, &te) && !errors.As(err, &ce) && !errors.As(err, &se) {
			t.Fatalf("unclassified error %T: %v", err, err)
		}
		// 2. The good offset bounds the input.
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("good offset %d outside [0, %d]", good, len(data))
		}
		// 3. The records are gapless from after+1.
		for i, rec := range recs {
			if rec.Seq != after+1+uint64(i) {
				t.Fatalf("record %d has seq %d, want %d", i, rec.Seq, after+1+uint64(i))
			}
		}
		// 4. Truncation-repair idempotence: the good prefix decodes
		// cleanly and reproduces exactly the same records — what the
		// follower relies on when it appends data[:good] verbatim.
		recs2, good2, err2 := DecodeShip(data[:good], after)
		if err2 != nil {
			t.Fatalf("prefix re-decode failed: %v", err2)
		}
		if good2 != good || len(recs2) != len(recs) {
			t.Fatalf("prefix re-decode: %d records to %d, want %d to %d", len(recs2), good2, len(recs), good)
		}
		for i := range recs {
			if recs2[i].Seq != recs[i].Seq || recs2[i].Type != recs[i].Type || !bytes.Equal(recs2[i].Data, recs[i].Data) {
				t.Fatalf("prefix record %d differs: %+v != %+v", i, recs2[i], recs[i])
			}
		}
		// 5. Decoded records re-encode (the JSON is valid), and the
		// encoding is a fixed point: encode(decode(encode(...))) is
		// byte-stable even where it legally differs from the input
		// (JSON escaping normalizes after one pass).
		e1, eerr := store.EncodeFrames(recs)
		if eerr != nil {
			t.Fatalf("re-encode: %v", eerr)
		}
		recs3, g3, err3 := DecodeShip(e1, after)
		if err3 != nil || g3 != int64(len(e1)) || len(recs3) != len(recs) {
			t.Fatalf("re-encoded run decode: %v (%d records to %d of %d)", err3, len(recs3), g3, len(e1))
		}
		e2, eerr := store.EncodeFrames(recs3)
		if eerr != nil || !bytes.Equal(e2, e1) {
			t.Fatalf("encode not a fixed point (err %v)", eerr)
		}
	})
}
