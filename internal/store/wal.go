package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
)

// WAL framing. Each record occupies one frame:
//
//	4 bytes  little-endian uint32: payload length
//	4 bytes  little-endian uint32: CRC-32C (Castagnoli) of the payload
//	n bytes  payload: the JSON-encoded Record envelope
//
// Frames are appended and fsync'd; nothing in a WAL is ever rewritten.
// A crash mid-append leaves at most one torn frame at the very end of
// the file — the reader classifies it (TailError) separately from real
// corruption (CorruptError), because recovery repairs the former by
// truncation and must refuse to proceed past the latter.
const (
	frameHeaderSize = 8
	// maxRecordBytes bounds one payload so a corrupt length prefix can
	// never drive a multi-gigabyte allocation. It comfortably exceeds
	// the largest legal payload (a fleet record embedding a spec body at
	// the serving layer's 32 MiB request cap).
	maxRecordBytes = 48 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Record is the WAL envelope: a sequence number that increases by
// exactly one per appended record (snapshots pin the last sequence they
// cover, so replay can skip records a snapshot already absorbed), a
// type tag, and the type's JSON payload.
type Record struct {
	Seq  uint64          `json:"seq"`
	Type string          `json:"type"`
	Data json.RawMessage `json:"data"`
}

// WAL record types.
const (
	// TypeIngest folds one accepted /v1/ingest batch: per-price
	// aggregate deltas plus the accepted record count.
	TypeIngest = "ingest"
	// TypeFit publishes one trace-inferred rate model. Replay restores
	// the last fit record rather than re-fitting, preserving the
	// "keep the previous fit on a contract violation" semantics.
	TypeFit = "fit"
	// TypeMergedFit publishes one cluster-merged rate model: a fit the
	// cross-node merger computed over the union of every partition's
	// aggregates and pushed through the same guarded publish path as a
	// local fit. Replay restores it exactly like TypeFit, so a recovered
	// (or promoted) node serves the merged model bit-identically.
	TypeMergedFit = "mergedfit"
	// TypeFleet starts a campaign fleet: the verbatim spec document,
	// the assigned campaign ids, and the pinned "fitted" model.
	TypeFleet = "fleet"
	// TypeRound is one completed campaign round: its snapshot plus the
	// campaign's full resumable checkpoint (terminal when the round
	// decided convergence).
	TypeRound = "round"
	// TypeFinished is a campaign terminal status reached between rounds
	// (budget exhaustion, round deadline, cancellation, failure).
	TypeFinished = "finished"
	// TypeArchive moves a finished campaign out of live state into the
	// bounded archive — the manager's retention-eviction export.
	TypeArchive = "archive"
)

// TailError reports a WAL whose final frame is incomplete or torn — the
// expected artifact of a crash mid-append. Offset is the byte position
// of the torn frame; everything before it decoded cleanly. Recovery
// truncates the tail there and continues.
type TailError struct {
	Offset int64
	Cause  string
}

func (e *TailError) Error() string {
	return fmt.Sprintf("store: torn WAL tail at byte %d: %s", e.Offset, e.Cause)
}

// CorruptError reports WAL damage that is not a torn tail: a CRC
// mismatch with further data behind it, an absurd length prefix, an
// undecodable envelope, or a sequence that fails to increase. Recovery
// refuses to proceed past it — partial state must never masquerade as
// recovered state.
type CorruptError struct {
	Offset int64
	Cause  string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: corrupt WAL record at byte %d: %s", e.Offset, e.Cause)
}

// EncodeRecordFrame appends rec to buf in the WAL's on-disk framing
// (length + CRC-32C + JSON envelope) and returns the extended buffer.
// It is the wire encoding WAL shipping uses: a follower appends the
// shipped frames verbatim to its replica WAL, so the replica replays
// through the exact same Reader as a local recovery.
func EncodeRecordFrame(buf []byte, rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("store: encode %s record frame: %w", rec.Type, err)
	}
	if len(payload) > maxRecordBytes {
		return nil, fmt.Errorf("store: record frame %d bytes above the %d cap", len(payload), maxRecordBytes)
	}
	return appendFrame(buf, payload), nil
}

// EncodeFrames frames recs back to back in the WAL's on-disk format:
// the body of a WAL-shipping reply, byte-identical to what wal.log
// holds for those records.
func EncodeFrames(recs []Record) ([]byte, error) {
	var buf []byte
	for _, rec := range recs {
		var err error
		if buf, err = EncodeRecordFrame(buf, rec); err != nil {
			return nil, fmt.Errorf("store: encode record %d: %w", rec.Seq, err)
		}
	}
	return buf, nil
}

// appendFrame appends one framed payload to buf and returns it.
func appendFrame(buf, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// Reader decodes framed records sequentially, enforcing the framing
// contract: intact CRCs, decodable envelopes, strictly increasing
// sequence numbers, record types non-empty. It never panics on
// arbitrary input (fuzzed in FuzzWALDecode) and classifies every
// failure as either a torn tail or corruption.
type Reader struct {
	br      *bufio.Reader
	offset  int64 // byte offset of the next frame
	lastSeq uint64
	hasSeq  bool
	err     error
}

// NewReader decodes WAL frames from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReader(r)}
}

// Offset returns the byte offset just past the last fully decoded
// record — the truncation point when Next returned a TailError.
func (d *Reader) Offset() int64 { return d.offset }

// Next returns the next record, io.EOF at a clean end, a *TailError at
// a torn final frame, or a *CorruptError. Errors are sticky.
func (d *Reader) Next() (Record, error) {
	if d.err != nil {
		return Record{}, d.err
	}
	rec, err := d.next()
	if err != nil {
		d.err = err
	}
	return rec, err
}

func (d *Reader) next() (Record, error) {
	var hdr [frameHeaderSize]byte
	n, err := io.ReadFull(d.br, hdr[:])
	if err == io.EOF && n == 0 {
		return Record{}, io.EOF
	}
	if err == io.ErrUnexpectedEOF || err == io.EOF {
		return Record{}, &TailError{Offset: d.offset, Cause: fmt.Sprintf("frame header is %d of %d bytes", n, frameHeaderSize)}
	}
	if err != nil {
		// A real read failure (EIO and kin) is neither a torn tail nor
		// corruption: the durable bytes may be fine. Fail the read so
		// recovery refuses to truncate records it merely could not see.
		return Record{}, fmt.Errorf("store: read WAL frame header: %w", err)
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	wantCRC := binary.LittleEndian.Uint32(hdr[4:8])
	if length == 0 || length > maxRecordBytes {
		// No writer ever produces an empty or over-cap payload, so the
		// header itself is garbage, not a partially flushed append.
		return Record{}, &CorruptError{Offset: d.offset, Cause: fmt.Sprintf("frame length %d outside (0, %d]", length, maxRecordBytes)}
	}
	payload := make([]byte, length)
	if m, err := io.ReadFull(d.br, payload); err != nil {
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			return Record{}, &TailError{Offset: d.offset, Cause: fmt.Sprintf("frame payload is %d of %d bytes", m, length)}
		}
		return Record{}, fmt.Errorf("store: read WAL frame payload: %w", err)
	}
	if got := crc32.Checksum(payload, crcTable); got != wantCRC {
		if _, err := d.br.Peek(1); err == io.EOF {
			// The final frame: its length hit the disk but part of the
			// payload did not — a torn append, repairable by truncation.
			return Record{}, &TailError{Offset: d.offset, Cause: fmt.Sprintf("final frame CRC mismatch (%08x != %08x)", got, wantCRC)}
		}
		return Record{}, &CorruptError{Offset: d.offset, Cause: fmt.Sprintf("CRC mismatch (%08x != %08x) with records following", got, wantCRC)}
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, &CorruptError{Offset: d.offset, Cause: fmt.Sprintf("envelope: %v", err)}
	}
	if rec.Type == "" {
		return Record{}, &CorruptError{Offset: d.offset, Cause: "envelope has no type"}
	}
	if d.hasSeq && rec.Seq <= d.lastSeq {
		return Record{}, &CorruptError{Offset: d.offset, Cause: fmt.Sprintf("sequence %d does not increase past %d (duplicated or reordered record)", rec.Seq, d.lastSeq)}
	}
	d.lastSeq, d.hasSeq = rec.Seq, true
	d.offset += int64(frameHeaderSize) + int64(length)
	return rec, nil
}
