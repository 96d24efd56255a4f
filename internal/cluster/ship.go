package cluster

import (
	"bytes"
	"fmt"
	"io"

	"hputune/internal/store"
)

// WAL shipping wire format: the reply body of GET /v1/replication/wal
// is a run of store WAL frames (length + CRC-32C + JSON record),
// byte-identical to what the leader's wal.log holds for those records.
// DecodeShip is the follower's gatekeeper — beyond the store Reader's
// framing contract it enforces the shipping contract: records must be
// gapless and start exactly at the follower's cursor + 1, because
// State.Apply refuses gaps and a silently skipped record would fork
// the replica.

// ShipError reports a shipped run that decodes cleanly but violates the
// contiguity contract. Offset is the byte position of the offending
// frame; everything before it is safe to append.
type ShipError struct {
	Offset int64
	Want   uint64
	Got    uint64
}

func (e *ShipError) Error() string {
	return fmt.Sprintf("cluster: shipped WAL breaks contiguity at byte %d: got seq %d, want %d", e.Offset, e.Got, e.Want)
}

// DecodeShip decodes a shipped run expected to continue after sequence
// `after`. It returns the decoded records, the byte offset up to which
// data may be appended verbatim to a replica WAL (every frame below it
// decoded cleanly and contiguously), and the classified error:
//
//	nil            — the whole body is clean; good == len(data)
//	*store.TailError — the final frame is torn (an in-flight reply cut
//	                 short); the prefix is usable
//	*store.CorruptError — framing damage; the prefix is usable, the
//	                 rest must not be trusted
//	*ShipError     — intact frames that skip or repeat a sequence; the
//	                 contiguous prefix is usable
func DecodeShip(data []byte, after uint64) ([]store.Record, int64, error) {
	d := store.NewReader(bytes.NewReader(data))
	var recs []store.Record
	want := after + 1
	for {
		prev := d.Offset()
		rec, err := d.Next()
		if err == io.EOF {
			return recs, prev, nil
		}
		if err != nil {
			return recs, d.Offset(), err
		}
		if rec.Seq != want {
			return recs, prev, &ShipError{Offset: prev, Want: want, Got: rec.Seq}
		}
		want++
		recs = append(recs, rec)
	}
}
