// Package batch implements the gateway→endpoint batched binary frame:
// the backhaul wire format that lets one HTTP request carry N 24-byte
// telemetry packets instead of one.
//
// The paper's fleet shape (and the Signpost platform it cites) is many
// low-rate devices aggregated through a handful of gateways: each device
// transmits once an hour, but a gateway fronting ten thousand of them
// sees a steady stream. Carrying that stream packet-per-request spends
// ~75% of the endpoint's ingest budget on HTTP per-request overhead and
// per-append fsync scheduling (BenchmarkIngestBareSyncAlways vs
// BenchmarkIngestBatched in internal/cloud). A
// frame amortizes all three: one request, one body read, one WAL
// group-commit fsync for the whole batch.
//
// Frame layout (big-endian), deliberately the same CRC-32C framing
// discipline as the tsdb WAL (internal/tsdb/record.go) so the decoder
// has the same torn/corrupt/oversized taxonomy:
//
//	0:4  payload length (uint32) — must equal len(frame)-8
//	4:8  CRC-32C (Castagnoli) of the payload
//	8:   payload — N concatenated 24-byte telemetry packets, N >= 1
//
// The length field is bounded by the decoder's cap before anything is
// trusted, so a corrupted or adversarial prefix can never drive a huge
// allocation; the CRC covers the whole payload, so a frame truncated or
// bit-flipped in transit is rejected as a unit rather than half-applied.
// Packet authenticity is NOT the frame's job: each packet inside still
// carries its own HMAC tag and is verified individually by the endpoint.
package batch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"centuryscale/internal/telemetry"
)

const (
	// HeaderSize is the frame prefix: length + CRC.
	HeaderSize = 8
	// PacketSize is the fixed record width inside a frame.
	PacketSize = telemetry.PacketSize
	// DefaultMaxPackets caps a frame at a size that amortizes HTTP and
	// fsync overhead to noise (<0.5% at 256 packets already) without
	// letting one request monopolize a decode buffer.
	DefaultMaxPackets = 1024
	// MaxFrameBytes is the largest on-the-wire frame the default cap
	// admits; body readers size their reject threshold from it.
	MaxFrameBytes = HeaderSize + DefaultMaxPackets*PacketSize
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Errors surfaced by the frame decoder, mirroring the WAL's taxonomy.
var (
	ErrTornFrame = errors.New("batch: torn frame (truncated header or payload)")
	ErrFrameSize = errors.New("batch: frame length out of bounds")
	ErrFrameCRC  = errors.New("batch: frame CRC mismatch")
	ErrBadCount  = errors.New("batch: payload is not a whole number of packets")
	ErrFull      = errors.New("batch: frame is full")
	ErrBadPacket = errors.New("batch: packet is not exactly PacketSize bytes")
)

// Split validates a complete frame and returns its payload (a view into
// frame, no copy) plus the packet count. maxPackets <= 0 means
// DefaultMaxPackets. The returned payload aliases frame: callers that
// reuse the frame buffer must finish with the payload first.
//
// Allocations: 0 per valid frame, measured by TestBatchAllocBudgets.
func Split(frame []byte, maxPackets int) (payload []byte, n int, err error) {
	if maxPackets <= 0 {
		maxPackets = DefaultMaxPackets
	}
	if len(frame) < HeaderSize {
		return nil, 0, fmt.Errorf("%w: %d bytes", ErrTornFrame, len(frame))
	}
	length := binary.BigEndian.Uint32(frame[0:4])
	if int64(length) != int64(len(frame)-HeaderSize) {
		return nil, 0, fmt.Errorf("%w: header says %d, body has %d", ErrTornFrame, length, len(frame)-HeaderSize)
	}
	if length == 0 || length > uint32(maxPackets)*PacketSize {
		return nil, 0, fmt.Errorf("%w: %d", ErrFrameSize, length)
	}
	if length%PacketSize != 0 {
		return nil, 0, fmt.Errorf("%w: %d bytes", ErrBadCount, length)
	}
	payload = frame[HeaderSize:]
	if crc32.Checksum(payload, castagnoli) != binary.BigEndian.Uint32(frame[4:8]) {
		return nil, 0, ErrFrameCRC
	}
	return payload, int(length) / PacketSize, nil
}

// Packet returns the i-th packet of a payload returned by Split, as a
// subslice (no copy).
//
// Allocations: 0, measured by TestBatchAllocBudgets.
func Packet(payload []byte, i int) []byte {
	return payload[i*PacketSize : (i+1)*PacketSize]
}

// IsFrame reports whether b is structurally a batch frame (consistent
// header, whole packets) without paying for the CRC. Senders that carry
// both bare 24-byte packets and frames over one channel route on this:
// a bare packet is always exactly PacketSize bytes, a frame is at least
// HeaderSize+PacketSize, so the two can never be confused.
func IsFrame(b []byte) bool {
	if len(b) < HeaderSize+PacketSize {
		return false
	}
	length := binary.BigEndian.Uint32(b[0:4])
	return int64(length) == int64(len(b)-HeaderSize) && length%PacketSize == 0
}

// Builder accumulates packets into a frame. The zero value is ready to
// use with the default cap; a Builder is not safe for concurrent use —
// callers serialize on their own lock (the uplink holds sendMu).
type Builder struct {
	// MaxPackets caps the frame; 0 means DefaultMaxPackets.
	MaxPackets int

	buf []byte // HeaderSize reserved bytes, then packets
}

func (b *Builder) cap() int {
	if b.MaxPackets > 0 {
		return b.MaxPackets
	}
	return DefaultMaxPackets
}

// Count returns the packets accumulated so far.
func (b *Builder) Count() int {
	if len(b.buf) <= HeaderSize {
		return 0
	}
	return (len(b.buf) - HeaderSize) / PacketSize
}

// Add appends one packet. ErrBadPacket rejects payloads that are not
// exactly PacketSize bytes (the caller falls back to an unbatched send);
// ErrFull rejects a packet that would exceed the cap (the caller flushes
// first).
//
// Allocations: 1 per frame, measured by TestBatchAllocBudgets.
func (b *Builder) Add(p []byte) error {
	if len(p) != PacketSize {
		return ErrBadPacket
	}
	if b.Count() >= b.cap() {
		return ErrFull
	}
	if b.buf == nil {
		b.buf = make([]byte, HeaderSize, HeaderSize+b.cap()*PacketSize)
	}
	b.buf = append(b.buf, p...)
	return nil
}

// Take seals the frame — fills in the length and CRC header — and hands
// the buffer to the caller, leaving the builder empty. Ownership
// transfers: the builder allocates a fresh buffer on the next Add, so
// the returned frame may sit in a store-and-forward queue indefinitely.
// Returns nil when no packets are pending.
func (b *Builder) Take() []byte {
	n := b.Count()
	if n == 0 {
		return nil
	}
	frame := b.buf
	b.buf = nil
	Seal(frame)
	return frame
}

// Seal fills in frame's header — the payload length and its CRC — over
// everything after it, so frame must be HeaderSize reserved bytes then
// one or more whole packets. It is the one sealing path: Take,
// AppendFrame and callers that write packets in place all end here.
//
// Allocations: 0, measured by TestBatchAllocBudgets.
func Seal(frame []byte) {
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(frame)-HeaderSize))
	binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(frame[HeaderSize:], castagnoli))
}

// AppendFrame seals packets into a single frame appended to dst — the
// one-shot form for tests and callers that already hold the batch.
func AppendFrame(dst []byte, packets ...[]byte) ([]byte, error) {
	start := len(dst)
	dst = append(dst, make([]byte, HeaderSize)...)
	for _, p := range packets {
		if len(p) != PacketSize {
			return nil, ErrBadPacket
		}
		dst = append(dst, p...)
	}
	if len(dst) == start+HeaderSize {
		return nil, fmt.Errorf("%w: empty frame", ErrFrameSize)
	}
	Seal(dst[start:])
	return dst, nil
}
