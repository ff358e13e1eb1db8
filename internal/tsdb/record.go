// Package tsdb is the endpoint's storage engine: N hash-sharded
// in-memory partitions over one append-only, CRC-framed write-ahead log
// that every shard shares, with segment rotation, group commit and a
// configurable fsync policy (DESIGN.md S40).
//
// The design answers the paper's §4.4-4.5 demand directly: a data
// endpoint that must survive 50 years of host migrations cannot afford
// either a single global mutex (ingest throughput stops scaling the day
// the fleet grows) or snapshot-only durability (a data-loss window equal
// to the snapshot interval). Here concurrent ingest fans out across
// shards keyed by device EUI-64, every accepted reading is framed into
// the log before it is acknowledged, and boot replays the log over the
// last checkpoint, tolerating a torn final record from the crash that
// necessitated the replay.
//
// The engine stores points; policy (authentication, replay rejection,
// the weekly-uptime ledger) stays in internal/cloud, and so does the
// checkpoint (a manifest beside binary segments, DESIGN.md S41), whose
// raw-tail file reuses this package's point record. The WAL is
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
// and the payload's first byte is its type. A point payload (0x01) is
// one reading:
//
//	0     record type (recordPoint)
//	1:9   device EUI-64
//	9:17  arrival time, int64 nanoseconds
//	17:21 sequence number
//	21    sensor type
//	22:26 value (IEEE-754 float32 bits)
//	26:30 device uptime, seconds
//
// An arrival-run payload (0x02) is k >= 1 readings that share one
// arrival, k = (length-9)/21 with no remainder and no count stored:
//
//	0     record type (recordRun)
//	1:9   arrival time, int64 nanoseconds
//	9:    k entries of 21 bytes: device EUI-64 (8), sequence number (4),
//	      sensor type (1), value bits (4), device uptime seconds (4)
//
// The length field is bounded by MaxFrame so that a corrupted or
// adversarial length prefix can never drive a huge allocation: the
// decoder rejects the frame before allocating. FORMAT.md has the
// refusals and which files hold which type.
const (
	frameHeader = 8
	// MaxFrame caps a record payload, and so a run at maxRun points.
	MaxFrame = 4096

	recordPoint  = 0x01
	pointPayload = 30

	// RecordSize is the size of one framed point record.
	RecordSize = frameHeader + pointPayload

	recordRun = 0x02
	runHeader = 9  // type and arrival
	runEntry  = 21 // one reading without its arrival
	maxRun    = (MaxFrame - runHeader) / runEntry
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Errors surfaced by the frame decoder. A torn or corrupt frame during
// replay is recovery information, not a fatal condition.
var (
	ErrTornFrame = errors.New("tsdb: torn frame (unexpected end of segment)")
	ErrFrameSize = errors.New("tsdb: frame length out of bounds")
	ErrFrameCRC  = errors.New("tsdb: frame CRC mismatch")
	ErrBadRecord = errors.New("tsdb: undecodable record payload")
	// ErrUnknownRecord is a sound frame of a type this build does not
	// know: a newer build's record, which replay refuses (K9).
	ErrUnknownRecord = errors.New("tsdb: unknown record type")
)

// AppendRecord appends a complete point frame for p to dst: the record
// of a checkpoint's raw-tail file, and the WAL's record for a point
// that shares its arrival with no neighbour. The record is encoded in
// place and the CRC taken over dst's own bytes: a local payload array
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

// appendRun appends one arrival-run frame for ps, which must share At
// and number 1 to maxRun: 17 + 21k bytes for k points. Encoded in place
// like AppendRecord.
func appendRun(dst []byte, ps []Point) []byte {
	size := runHeader + runEntry*len(ps)
	n := len(dst)
	dst = slices.Grow(dst, frameHeader+size)[:n+frameHeader+size]
	rec := dst[n:]
	payload := rec[frameHeader:]
	payload[0] = recordRun
	binary.BigEndian.PutUint64(payload[1:9], uint64(ps[0].At))
	e := payload[runHeader:]
	for _, p := range ps {
		copy(e[0:8], p.Device[:])
		binary.BigEndian.PutUint32(e[8:12], p.Seq)
		e[12] = p.Sensor
		binary.BigEndian.PutUint32(e[13:17], math.Float32bits(p.Value))
		binary.BigEndian.PutUint32(e[17:21], p.Uptime)
		e = e[runEntry:]
	}
	binary.BigEndian.PutUint32(rec[0:4], uint32(size))
	binary.BigEndian.PutUint32(rec[4:8], crc32.Checksum(payload, castagnoli))
	return dst
}

// appendLog appends the WAL frames for ps: each run of consecutive
// points sharing At, split at maxRun, is one arrival-run record, and a
// point alone in its run is a point record (the same 38 bytes).
func appendLog(dst []byte, ps []Point) []byte {
	for len(ps) > 0 {
		k := 1
		for k < len(ps) && k < maxRun && ps[k].At == ps[0].At {
			k++
		}
		if k == 1 {
			dst = AppendRecord(dst, ps[0])
		} else {
			dst = appendRun(dst, ps[:k])
		}
		ps = ps[k:]
	}
	return dst
}

// decodePayload decodes one record payload of either type, handing its
// points to emit, and returns how many it held. A payload is checked
// whole before its first point is emitted. A known type that does not
// decode is ErrBadRecord; any other type is ErrUnknownRecord.
func decodePayload(payload []byte, emit func(Point)) (int, error) {
	switch leadByte(payload) {
	case recordPoint:
		if len(payload) != pointPayload {
			break
		}
		var p Point
		copy(p.Device[:], payload[1:9])
		p.At = time.Duration(binary.BigEndian.Uint64(payload[9:17]))
		p.Seq = binary.BigEndian.Uint32(payload[17:21])
		p.Sensor = payload[21]
		p.Value = math.Float32frombits(binary.BigEndian.Uint32(payload[22:26]))
		p.Uptime = binary.BigEndian.Uint32(payload[26:30])
		emit(p)
		return 1, nil
	case recordRun:
		body := len(payload) - runHeader
		if body < runEntry || body%runEntry != 0 {
			break
		}
		p := Point{At: time.Duration(binary.BigEndian.Uint64(payload[1:9]))}
		for e := payload[runHeader:]; len(e) > 0; e = e[runEntry:] {
			copy(p.Device[:], e[0:8])
			p.Seq = binary.BigEndian.Uint32(e[8:12])
			p.Sensor = e[12]
			p.Value = math.Float32frombits(binary.BigEndian.Uint32(e[13:17]))
			p.Uptime = binary.BigEndian.Uint32(e[17:21])
			emit(p)
		}
		return body / runEntry, nil
	default:
		return 0, fmt.Errorf("%w %#x (%d bytes)", ErrUnknownRecord, leadByte(payload), len(payload))
	}
	return 0, fmt.Errorf("%w: %d bytes, type %#x", ErrBadRecord, len(payload), leadByte(payload))
}

// DecodeRecords reads framed records of either type from r up to a
// clean end, handing each point to emit, and reports how many points and
// bytes were intact. A torn, oversized, corrupt or undecodable frame
// ends the read and is returned as err; what to make of it is the
// caller's call (WAL replay recovers, a checkpoint's tail refuses the
// boot).
func DecodeRecords(r io.Reader, emit func(Point)) (points uint64, good int64, err error) {
	buf := make([]byte, frameHeader+MaxFrame)
	for {
		payload, err := readFrame(r, buf)
		if errors.Is(err, io.EOF) {
			return points, good, nil
		}
		if err != nil {
			return points, good, err
		}
		n, err := decodePayload(payload, emit)
		if err != nil {
			return points, good, err
		}
		points += uint64(n)
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
