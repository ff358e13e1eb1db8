// Package telemetry defines the sensor data unit of the system: a signed,
// exactly-24-byte packet, sized to the paper's Helium economics (§4.4: "one
// (up to 24-byte) packet every one hour ... 438,000 data credits" over 50
// years).
//
// The devices are transmit-only (§4.1): they can never receive key
// updates, so their security envelope is fixed at manufacture. The paper
// frames this as "minimal security risk, but limited longitudinal trust."
// We encode that trade-off directly: each packet carries a truncated
// HMAC-SHA256 tag under a per-device key provisioned at manufacture, plus
// a monotone sequence number the endpoint uses for replay rejection. A
// 24-bit tag is no defence against a determined on-path forger — the point
// is integrity against corruption and casual spoofing, with the endpoint
// free to quarantine devices whose keys must be presumed stale.
package telemetry

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math"

	"centuryscale/internal/lpwan"
)

// SensorType identifies what quantity a reading reports.
type SensorType uint8

// Sensor types for the infrastructure-monitoring workloads the paper
// motivates: concrete health (§1), traffic, environment (§2).
const (
	SensorConcreteEMI SensorType = iota // electromechanical impedance, concrete health
	SensorStrain
	SensorVibration
	SensorTemperature
	SensorHumidity
	SensorAirQuality
	SensorTraffic
	SensorBinFill // waste-bin fill level (Seoul case study, §2)
)

var sensorNames = map[SensorType]string{
	SensorConcreteEMI: "concrete-emi",
	SensorStrain:      "strain",
	SensorVibration:   "vibration",
	SensorTemperature: "temperature",
	SensorHumidity:    "humidity",
	SensorAirQuality:  "air-quality",
	SensorTraffic:     "traffic",
	SensorBinFill:     "bin-fill",
}

// String implements fmt.Stringer.
func (s SensorType) String() string {
	if n, ok := sensorNames[s]; ok {
		return n
	}
	return fmt.Sprintf("sensor(%d)", uint8(s))
}

// PacketSize is the exact wire size of a telemetry packet: the paper's
// 24-byte Helium data-credit unit.
const PacketSize = 24

// tagBytes is the truncated HMAC length.
const tagBytes = 3

// Packet is one sensor reading.
//
// Wire layout (big-endian):
//
//	0:8   device EUI-64
//	8:12  sequence number
//	12    sensor type
//	13:17 value (IEEE-754 float32)
//	17:21 device uptime at sampling, seconds
//	21:24 truncated HMAC-SHA256 over bytes 0:21
type Packet struct {
	Device        lpwan.EUI64
	Seq           uint32
	Sensor        SensorType
	Value         float32
	UptimeSeconds uint32
}

// Errors returned by Verify and Decode.
var (
	ErrBadSize  = errors.New("telemetry: wrong packet size")
	ErrBadTag   = errors.New("telemetry: authentication tag mismatch")
	ErrReplay   = errors.New("telemetry: stale or replayed sequence number")
	ErrValueNaN = errors.New("telemetry: NaN value rejected")
	ErrShortKey = errors.New("telemetry: key shorter than 16 bytes")
	ErrWrongDev = errors.New("telemetry: packet from unexpected device")
)

// Key is a per-device signing key provisioned at manufacture.
type Key []byte

// DeriveKey deterministically derives a device key from a fleet master
// secret and the device address — how a manufacturer provisions keys
// without a per-device database.
func DeriveKey(master []byte, dev lpwan.EUI64) Key {
	mac := hmac.New(sha256.New, master)
	mac.Write([]byte("centuryscale-device-key"))
	mac.Write(dev[:])
	return Key(mac.Sum(nil))
}

// Seal encodes and signs the packet. The key must be at least 16 bytes.
func (p Packet) Seal(key Key) ([]byte, error) {
	if len(key) < 16 {
		return nil, ErrShortKey
	}
	if math.IsNaN(float64(p.Value)) {
		return nil, ErrValueNaN
	}
	buf := make([]byte, PacketSize)
	copy(buf[0:8], p.Device[:])
	binary.BigEndian.PutUint32(buf[8:12], p.Seq)
	buf[12] = uint8(p.Sensor)
	binary.BigEndian.PutUint32(buf[13:17], math.Float32bits(p.Value))
	binary.BigEndian.PutUint32(buf[17:21], p.UptimeSeconds)
	mac := hmac.New(sha256.New, key)
	mac.Write(buf[:21])
	copy(buf[21:24], mac.Sum(nil)[:tagBytes])
	return buf, nil
}

// Parse decodes a packet without verifying its tag; use Verify for
// authenticated decoding. It validates only structure.
func Parse(wire []byte) (Packet, error) {
	var p Packet
	if len(wire) != PacketSize {
		return p, fmt.Errorf("%w: %d bytes", ErrBadSize, len(wire))
	}
	copy(p.Device[:], wire[0:8])
	p.Seq = binary.BigEndian.Uint32(wire[8:12])
	p.Sensor = SensorType(wire[12])
	p.Value = math.Float32frombits(binary.BigEndian.Uint32(wire[13:17]))
	p.UptimeSeconds = binary.BigEndian.Uint32(wire[17:21])
	return p, nil
}

// Verify parses the packet and checks its tag against the key.
func Verify(wire []byte, key Key) (Packet, error) {
	p, err := Parse(wire)
	if err != nil {
		return p, err
	}
	mac := hmac.New(sha256.New, key)
	mac.Write(wire[:21])
	if !hmac.Equal(wire[21:24], mac.Sum(nil)[:tagBytes]) {
		return p, ErrBadTag
	}
	return p, nil
}

// Verifier authenticates packets under one device key without per-call
// allocation: the keyed HMAC state and the digest buffer are built once
// and reused via Reset. Device keys are burned in at manufacture and
// never rotate (the devices are transmit-only), so a cached Verifier
// stays valid for the device's whole life. Not safe for concurrent use;
// callers verifying from multiple goroutines hold one Verifier each.
type Verifier struct {
	mac hash.Hash
	sum [sha256.Size]byte
}

// NewVerifier builds a reusable verifier for one device key.
func NewVerifier(key Key) (*Verifier, error) {
	if len(key) < 16 {
		return nil, ErrShortKey
	}
	v := &Verifier{mac: hmac.New(sha256.New, key)}
	// Run one throwaway Sum/Reset cycle: crypto/hmac snapshots its keyed
	// pad states lazily on the first Reset after a Sum, so priming here
	// makes every real Verify allocation-free.
	_ = v.mac.Sum(v.sum[:0])
	v.mac.Reset()
	return v, nil
}

// Verify parses the packet and checks its tag, reusing the keyed state.
//
// Allocations: 0 per packet, measured by TestVerifierAllocBudget.
func (v *Verifier) Verify(wire []byte) (Packet, error) {
	p, err := Parse(wire)
	if err != nil {
		return p, err
	}
	v.mac.Reset()
	v.mac.Write(wire[:21])
	if !hmac.Equal(wire[21:24], v.mac.Sum(v.sum[:0])[:tagBytes]) {
		return p, ErrBadTag
	}
	return p, nil
}

// ReplayGuard rejects a sequence number its device has already used.
// Transmit-only devices count strictly upward from deployment, so a
// high-water mark per device suffices; a bounded reordering window below
// it admits gateway races. It is the IPsec/DTLS sliding-window
// anti-replay: the shift that advances a device's mask is also what
// forgets sequence numbers that left the window, so nothing is pruned.
type ReplayGuard struct {
	width   uint32 // a seq fewer than width below the high water lands once; 0 is strict monotone
	devices map[lpwan.EUI64]seqWindow
}

type seqWindow struct {
	hw   uint32 // highest sequence number admitted
	mask uint64 // bit d: seq hw−d was admitted
}

// NewReplayGuard returns a guard admitting the given reordering window,
// which may not exceed 64, the mask's width.
func NewReplayGuard(window uint32) *ReplayGuard {
	if window > 64 {
		panic(fmt.Sprintf("telemetry: replay window %d exceeds the 64-bit mask", window))
	}
	return &ReplayGuard{width: window, devices: make(map[lpwan.EUI64]seqWindow)}
}

// admits reports whether seq is fresh for a known device: above the high
// water, or fewer than width below it and unseen. hw−seq is only read when
// seq <= hw, so it cannot wrap, even at MaxUint32.
func (w seqWindow) admits(seq, width uint32) bool {
	d := w.hw - seq
	return seq > w.hw || d < width && w.mask>>d&1 == 0
}

// advance raises the high water to seq > hw; a jump of 64 or more leaves
// only seq (an unsigned shift by the width or more is 0). The zero value
// advances to {seq, 1}, a device's first sight.
func (w seqWindow) advance(seq uint32) seqWindow {
	return seqWindow{hw: seq, mask: w.mask<<(seq-w.hw) | 1}
}

// Check reports whether Admit would accept p, without mutating the guard:
// Fresh's verdict without its error, for callers that count refusals.
//
// Allocations: 0, measured by TestReplayGuardAllocBudget.
func (g *ReplayGuard) Check(p Packet) bool {
	w, known := g.devices[p.Device]
	return !known || w.admits(p.Seq, g.width)
}

// Fresh reports whether Admit would accept the packet, without mutating
// the guard. Callers that must do fallible work between the freshness
// check and the commitment (e.g. a WAL append) use Fresh first and Admit
// only once the work succeeded, holding their own lock across both.
func (g *ReplayGuard) Fresh(p Packet) error {
	w, known := g.devices[p.Device]
	switch {
	case !known || w.admits(p.Seq, g.width):
		return nil
	case w.hw-p.Seq < g.width:
		return fmt.Errorf("%w: seq %d already seen", ErrReplay, p.Seq)
	default:
		return fmt.Errorf("%w: seq %d <= high water %d", ErrReplay, p.Seq, w.hw)
	}
}

// Record admits p if its sequence number is fresh and reports whether it
// did: Admit's verdict without its error.
//
// Allocations: 0 once the device is known, measured by
// TestReplayGuardAllocBudget.
func (g *ReplayGuard) Record(p Packet) bool {
	w, known := g.devices[p.Device]
	switch {
	case !known || p.Seq > w.hw:
		w = w.advance(p.Seq)
	case w.admits(p.Seq, g.width):
		w.mask |= 1 << (w.hw - p.Seq)
	default:
		return false
	}
	g.devices[p.Device] = w
	return true
}

// Admit records and admits the packet if its sequence number is fresh,
// returning ErrReplay otherwise.
func (g *ReplayGuard) Admit(p Packet) error {
	if g.Record(p) {
		return nil
	}
	return g.Fresh(p)
}

// Seed raises a device's sequence high-water mark without replaying the
// individual packets — rebuilding replay protection for readings whose
// raw copies were folded into rollup buckets, where only the maximum
// sequence number survives. The seeded sequence itself is marked seen
// (so an exact replay of the last folded packet is still rejected);
// unseen sequence numbers inside the reordering window below it remain
// admissible, the same bounded tolerance live ingest grants. A seed
// never lowers an existing mark, and one at or below it marks nothing.
func (g *ReplayGuard) Seed(dev lpwan.EUI64, seq uint32) {
	if w, known := g.devices[dev]; !known || seq > w.hw {
		g.devices[dev] = w.advance(seq)
	}
}

// Devices reports how many distinct devices the guard has seen.
func (g *ReplayGuard) Devices() int { return len(g.devices) }
