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
// raw-tail file holds this package's device runs (AppendDeviceRuns) and
// is read by its decoder (DecodeRecords). The WAL is
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
	"centuryscale/internal/varint"
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
// A device-run payload (0x03) is k >= 1 readings of one device, in the
// order the memtable holds them, each a few bytes of deltas:
//
//	0     record type (recordDeviceRun)
//	1:9   device EUI-64
//	9:    k points: arrival (zigzag varint delta-of-delta), sequence
//	      number (zigzag varint delta), sensor type (1 byte), value bits
//	      (4 bytes), device uptime (zigzag varint delta-of-delta)
//
// with the arithmetic wrapping mod 2^64 and the delta state at zero at
// the start of every record, so each record stands alone. Only a
// checkpoint's tail file holds device runs; the WAL never writes them.
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

	recordDeviceRun = 0x03
	deviceRunHeader = 9 // type and device
	// minRunPoint is the shortest point of a device run: three one-byte
	// varints, the sensor and the value. It bounds the points a payload
	// can hold.
	minRunPoint     = 3 + 1 + 4
	maxDevicePoints = (MaxFrame - deviceRunHeader) / minRunPoint
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

// AppendRecord appends a complete point frame for p to dst: the WAL's
// record for a point that shares its arrival with no neighbour, and the
// record of a checkpoint's raw-tail file before manifest version 5. The
// record is encoded in place and the CRC taken over dst's own bytes: a
// local payload array would escape to the heap through crc32.Checksum,
// one allocation per record (F9).
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

// AppendDeviceRuns appends device-run frames for ps: one record for each
// run of consecutive points of one device, split wherever the next point
// would take the payload past MaxFrame. The checkpoint's tail writes each
// device's points in memtable order this way, about 9 bytes a reading
// where a point record takes 38.
func AppendDeviceRuns(dst []byte, ps []Point) []byte {
	for len(ps) > 0 {
		at := len(dst)
		dst = binary.BigEndian.AppendUint64(dst, 0) // length and CRC, filled in below
		dst = append(dst, recordDeviceRun)
		dst = append(dst, ps[0].Device[:]...)
		var prev, prevDelta, seq, up, upDelta uint64
		k := 0
		for ; k < len(ps) && ps[k].Device == ps[0].Device; k++ {
			p := ps[k]
			mark := len(dst)
			delta, uDelta := uint64(p.At)-prev, uint64(p.Uptime)-up
			dst = binary.AppendVarint(dst, int64(delta-prevDelta))
			dst = binary.AppendVarint(dst, int64(uint64(p.Seq)-seq))
			dst = append(dst, p.Sensor)
			dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(p.Value))
			dst = binary.AppendVarint(dst, int64(uDelta-upDelta))
			if len(dst)-at-frameHeader > MaxFrame {
				dst = dst[:mark] // k ≥ 1 here: a point is at most 25 bytes
				break
			}
			prev, prevDelta, seq, up, upDelta = uint64(p.At), delta, uint64(p.Seq), uint64(p.Uptime), uDelta
		}
		binary.BigEndian.PutUint32(dst[at:], uint32(len(dst)-at-frameHeader))
		binary.BigEndian.PutUint32(dst[at+4:], crc32.Checksum(dst[at+frameHeader:], castagnoli))
		ps = ps[k:]
	}
	return dst
}

// decodeDeviceRun appends the points of a device-run payload to pts. It
// accepts exactly what AppendDeviceRuns writes: it refuses a run of no
// points, a varint that is not minimal or overflows 64 bits, a sequence
// number or uptime outside 32 bits, and bytes left that are not a whole
// point.
func decodeDeviceRun(payload []byte, pts []Point) ([]Point, error) {
	switch {
	case len(payload) < deviceRunHeader:
		return pts, errors.New("device run shorter than its device")
	case len(payload) == deviceRunHeader:
		return pts, errors.New("device run of no points")
	}
	p := Point{Device: lpwan.EUI64(payload[1:deviceRunHeader])}
	d := varint.NewReader(payload[deviceRunHeader:])
	var prev, prevDelta, seq, up, upDelta uint64
	for d.Len() > 0 {
		delta := prevDelta + uint64(d.Varint())
		prev += delta
		seq += uint64(d.Varint())
		p.Sensor = d.Fixed(1)[0]
		p.Value = math.Float32frombits(binary.BigEndian.Uint32(d.Fixed(4)))
		uDelta := upDelta + uint64(d.Varint())
		up += uDelta
		if seq > math.MaxUint32 || up > math.MaxUint32 {
			d.Fail("sequence number or uptime outside 32 bits")
		}
		if err := d.Err(); err != nil {
			return pts, fmt.Errorf("device run point %d: %w", len(pts), err)
		}
		p.At, p.Seq, p.Uptime = time.Duration(prev), uint32(seq), uint32(up)
		pts = append(pts, p)
		prevDelta, upDelta = delta, uDelta
	}
	return pts, nil
}

// decodePayload decodes one record payload of any type, handing its
// points to emit, and returns how many it held. A payload is checked
// whole before its first point is emitted: a device run is decoded into
// *scratch first. A known type that does not decode is ErrBadRecord; any
// other type is ErrUnknownRecord.
func decodePayload(payload []byte, scratch *[]Point, emit func(Point)) (int, error) {
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
	case recordDeviceRun:
		pts, err := decodeDeviceRun(payload, (*scratch)[:0])
		*scratch = pts
		if err != nil {
			return 0, fmt.Errorf("%w: %v", ErrBadRecord, err)
		}
		for _, p := range pts {
			emit(p)
		}
		return len(pts), nil
	default:
		return 0, fmt.Errorf("%w %#x (%d bytes)", ErrUnknownRecord, leadByte(payload), len(payload))
	}
	return 0, fmt.Errorf("%w: %d bytes, type %#x", ErrBadRecord, len(payload), leadByte(payload))
}

// DecodeRecords reads framed records of any type from r up to a clean
// end, handing each point to emit, and reports how many points and
// bytes were intact. A torn, oversized, corrupt or undecodable frame
// ends the read and is returned as err; what to make of it is the
// caller's call (WAL replay recovers, a checkpoint's tail refuses the
// boot).
func DecodeRecords(r io.Reader, emit func(Point)) (points uint64, good int64, err error) {
	buf := make([]byte, frameHeader+MaxFrame)
	var scratch []Point // a device run's points; grown on the first one
	for {
		payload, err := readFrame(r, buf)
		if errors.Is(err, io.EOF) {
			return points, good, nil
		}
		if err != nil {
			return points, good, err
		}
		n, err := decodePayload(payload, &scratch, emit)
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
