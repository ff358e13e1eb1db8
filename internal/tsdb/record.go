// Package tsdb is the endpoint's storage engine: N hash-sharded
// per-device partitions, each backed by an append-only, CRC-framed
// write-ahead log with segment rotation and a configurable fsync policy.
//
// The design answers the paper's §4.4-4.5 demand directly: a data
// endpoint that must survive 50 years of host migrations cannot afford
// either a single global mutex (ingest throughput stops scaling the day
// the fleet grows) or snapshot-only durability (a data-loss window equal
// to the snapshot interval). Here concurrent ingest fans out across
// shards keyed by device EUI-64, every accepted reading is framed into
// the shard's WAL before it is acknowledged, and boot replays the WAL
// over the last checkpoint, tolerating a torn final record from the
// crash that necessitated the replay.
//
// The engine stores points; policy (authentication, replay rejection,
// quarantine, the weekly-uptime ledger) stays in internal/cloud, and so
// does the checkpoint (a manifest beside binary segments, DESIGN.md S41),
// whose raw-tail file reuses this package's record framing. The WAL is
// deliberately not archival — it is the crash-safety path between
// checkpoints, truncated at each one.
package tsdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"time"

	"centuryscale/internal/lpwan"
)

// Point is one stored reading. It mirrors the fields of an accepted
// telemetry packet plus its arrival time, but deliberately does not
// import internal/telemetry: the storage layer outlives any particular
// wire format.
type Point struct {
	Device lpwan.EUI64
	At     time.Duration
	Seq    uint32
	Sensor uint8
	Value  float32
	Uptime uint32
}

// WAL framing: every record is
//
//	0:4  payload length  (big-endian uint32)
//	4:8  CRC-32C of the payload (Castagnoli)
//	8:   payload
//
// and a v1 point payload is
//
//	0     record type (recordPoint)
//	1:9   device EUI-64
//	9:17  arrival time, int64 nanoseconds
//	17:21 sequence number
//	21    sensor type
//	22:26 value (IEEE-754 float32 bits)
//	26:30 device uptime, seconds
//
// The length field is bounded by MaxFrame so that a corrupted or
// adversarial length prefix can never drive a huge allocation: the
// decoder rejects the frame before allocating.
const (
	frameHeader = 8
	// MaxFrame caps a record payload. Far above pointPayload to leave
	// room for future record types, far below anything dangerous.
	MaxFrame = 4096

	recordPoint  = 0x01
	pointPayload = 30

	// RecordSize is the size of one framed point record.
	RecordSize = frameHeader + pointPayload
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Errors surfaced by the frame decoder. A torn or corrupt frame during
// replay is recovery information, not a fatal condition.
var (
	ErrTornFrame = errors.New("tsdb: torn frame (unexpected end of segment)")
	ErrFrameSize = errors.New("tsdb: frame length out of bounds")
	ErrFrameCRC  = errors.New("tsdb: frame CRC mismatch")
	ErrBadRecord = errors.New("tsdb: undecodable record payload")
)

// AppendRecord appends a complete frame for p to dst: the WAL's record,
// and the record of a checkpoint's raw-tail file. The record is encoded
// in place and the CRC taken over dst's own bytes: a local payload array
// would escape to the heap through crc32.Checksum, one allocation per
// record (F9).
func AppendRecord(dst []byte, p Point) []byte {
	n := len(dst)
	dst = slices.Grow(dst, RecordSize)[:n+RecordSize]
	rec := dst[n:]
	payload := rec[frameHeader:]
	payload[0] = recordPoint
	copy(payload[1:9], p.Device[:])
	binary.BigEndian.PutUint64(payload[9:17], uint64(p.At))
	binary.BigEndian.PutUint32(payload[17:21], p.Seq)
	payload[21] = p.Sensor
	binary.BigEndian.PutUint32(payload[22:26], math.Float32bits(p.Value))
	binary.BigEndian.PutUint32(payload[26:30], p.Uptime)

	binary.BigEndian.PutUint32(rec[0:4], pointPayload)
	binary.BigEndian.PutUint32(rec[4:8], crc32.Checksum(payload, castagnoli))
	return dst
}

// decodePoint decodes a v1 point payload.
func decodePoint(payload []byte) (Point, error) {
	var p Point
	if len(payload) != pointPayload || payload[0] != recordPoint {
		return p, fmt.Errorf("%w: %d bytes, type %#x", ErrBadRecord, len(payload), leadByte(payload))
	}
	copy(p.Device[:], payload[1:9])
	p.At = time.Duration(binary.BigEndian.Uint64(payload[9:17]))
	p.Seq = binary.BigEndian.Uint32(payload[17:21])
	p.Sensor = payload[21]
	p.Value = math.Float32frombits(binary.BigEndian.Uint32(payload[22:26]))
	p.Uptime = binary.BigEndian.Uint32(payload[26:30])
	return p, nil
}

// DecodeRecords reads framed point records from r up to a clean end,
// handing each to emit, and reports how many records and bytes were
// intact. A torn, oversized, corrupt or undecodable frame ends the read
// and is returned as err; what to make of it is the caller's call (WAL
// replay recovers, a checkpoint's tail refuses the boot).
func DecodeRecords(r io.Reader, emit func(Point)) (records uint64, good int64, err error) {
	buf := make([]byte, frameHeader+MaxFrame)
	for {
		payload, err := readFrame(r, buf)
		if errors.Is(err, io.EOF) {
			return records, good, nil
		}
		if err != nil {
			return records, good, err
		}
		p, err := decodePoint(payload)
		if err != nil {
			return records, good, err
		}
		emit(p)
		records++
		good += frameHeader + int64(len(payload))
	}
}

func leadByte(b []byte) byte {
	if len(b) == 0 {
		return 0
	}
	return b[0]
}

// readFrame reads one frame from r. It returns io.EOF only on a clean
// record boundary; a partial header or short payload is ErrTornFrame,
// so replay can distinguish "end of log" from "crashed mid-append".
// Header and payload are read into buf, which must hold
// frameHeader+MaxFrame bytes: a replay loop passes the same buffer for
// every record and allocates nothing per record, and the returned
// payload is valid until the next call.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	hdr := buf[:frameHeader]
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: %v", ErrTornFrame, err)
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTornFrame, err)
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n == 0 || n > MaxFrame {
		return nil, fmt.Errorf("%w: %d", ErrFrameSize, n)
	}
	payload := buf[frameHeader : frameHeader+int(n)]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTornFrame, err)
	}
	if crc32.Checksum(payload, castagnoli) != binary.BigEndian.Uint32(hdr[4:8]) {
		return nil, ErrFrameCRC
	}
	return payload, nil
}
