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
	"encoding"
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

// Auth is one device key's HMAC-SHA256 pad state: the SHA-256 chaining
// values after the key's ipad block and after its opad block, 64 bytes,
// which is all of the key that verification needs (FIPS 198-1 §6 permits
// precomputing them). Device keys are burned in at manufacture and never
// rotate (the devices are transmit-only), so an Auth built once is valid
// for the device's whole life, and it is immutable: any number of
// goroutines may verify under one Auth, each with its own Hasher.
type Auth struct {
	inner, outer [sha256.Size]byte // chaining values, big-endian, as sha256 marshals them
}

// sha256State is what sha256.New returns: a hash.Hash whose state
// marshals (allocating) and restores (without allocating).
type sha256State interface {
	hash.Hash
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// Hasher is the reusable working state that verifies packets under any
// Auth: one SHA-256 digest and the marshaled state it is restored from.
// That state is sha256's own format — magic, chaining value, a block
// buffer and the byte count — and after exactly one 64-byte block the
// buffer is empty and the count is 64, so only the chaining value ever
// changes; FuzzVerify pins the format against crypto/hmac. Not safe for
// concurrent use: each verifying goroutine holds its own.
type Hasher struct {
	sha   sha256State
	state []byte // a marshaled digest after one block; bytes 4:36 are its chaining value
	sum   [sha256.Size]byte
	block [sha256.BlockSize]byte // a key's pad block; on the heap, where the digest may see it
}

// NewHasher returns working state for Verify and Pad.
func NewHasher() *Hasher {
	h := &Hasher{sha: sha256.New().(sha256State)}
	h.sha.Write(h.block[:])
	h.state, _ = h.sha.MarshalBinary() // sha256's MarshalBinary returns no error
	return h
}

// chainOf is the chaining value inside a marshaled sha256 state.
func chainOf(state []byte) []byte { return state[4 : 4+sha256.Size] }

// Pad builds key's pad state into a, hashing a key longer than the
// block first, as HMAC does. Admission calls it only for a device whose
// record holds no pad state yet, so its two marshaled states, one
// allocation each, are paid once per device per store.
func (h *Hasher) Pad(key Key, a *Auth) error {
	if len(key) < 16 {
		return ErrShortKey
	}
	h.block = [sha256.BlockSize]byte{}
	if len(key) > len(h.block) {
		h.sha.Reset()
		h.sha.Write(key)
		h.sha.Sum(h.block[:0])
	} else {
		copy(h.block[:], key)
	}
	h.chainAfter(0x36, &a.inner)
	h.chainAfter(0x36^0x5c, &a.outer) // undoes ipad's 0x36 as it applies opad's 0x5c
	return nil
}

// chainAfter XORs every byte of h.block with pad and stores the chaining
// value after compressing it into cv.
func (h *Hasher) chainAfter(pad byte, cv *[sha256.Size]byte) {
	for i := range h.block {
		h.block[i] ^= pad
	}
	h.sha.Reset()
	h.sha.Write(h.block[:])
	st, _ := h.sha.MarshalBinary() // no error, as in NewHasher
	copy(cv[:], chainOf(st))
}

// restore sets the digest to the state after one block whose chaining
// value is cv.
func (h *Hasher) restore(cv *[sha256.Size]byte) {
	copy(chainOf(h.state), cv[:])
	if err := h.sha.UnmarshalBinary(h.state); err != nil {
		panic("telemetry: sha256 refused its own marshaled state: " + err.Error())
	}
}

// Verify parses the packet and checks its tag under a: HMAC-SHA256 with
// the pad blocks' compressions already done, so two compressions per
// packet.
//
// Allocations: 0 per packet, measured by TestVerifierAllocBudget.
func (h *Hasher) Verify(a *Auth, wire []byte) (Packet, error) {
	p, err := Parse(wire)
	if err != nil {
		return p, err
	}
	h.restore(&a.inner)
	h.sha.Write(wire[:21])
	inner := h.sha.Sum(h.sum[:0])
	h.restore(&a.outer)
	h.sha.Write(inner)
	if !hmac.Equal(wire[21:24], h.sha.Sum(h.sum[:0])[:tagBytes]) {
		return p, ErrBadTag
	}
	return p, nil
}

// Verifier authenticates packets under one device key without per-call
// allocation: its Auth and its Hasher together. Not safe for concurrent
// use; callers verifying from multiple goroutines hold one Verifier each.
type Verifier struct {
	auth Auth
	h    *Hasher
}

// NewVerifier builds a reusable verifier for one device key.
func NewVerifier(key Key) (*Verifier, error) {
	v := &Verifier{h: NewHasher()}
	if err := v.h.Pad(key, &v.auth); err != nil {
		return nil, err
	}
	return v, nil
}

// Verify parses the packet and checks its tag.
//
// Allocations: 0 per packet, measured by TestVerifierAllocBudget.
func (v *Verifier) Verify(wire []byte) (Packet, error) {
	return v.h.Verify(&v.auth, wire)
}

// Window is one device's sliding replay window, the IPsec/DTLS
// anti-replay bitmap: the highest sequence number admitted and a mask of
// those admitted below it. The shift that advances the high water is
// also what forgets sequence numbers that left the window, so nothing is
// pruned. The zero Window is a device never seen: every admitted
// sequence number sets a bit, so a seen device's mask is never 0. width
// is the reordering tolerance: a seq fewer than width below the high
// water lands once; 0 is strict monotone; at most 64, the mask's width.
type Window struct {
	hw   uint32 // highest sequence number admitted
	mask uint64 // bit d: seq hw−d was admitted
}

// Admits reports whether seq is fresh: the device is unseen, or seq is
// above the high water, or fewer than width below it and unseen. hw−seq
// is only read when seq <= hw, so it cannot wrap, even at MaxUint32.
//
// Allocations: 0, measured by TestReplayGuardAllocBudget.
func (w Window) Admits(seq, width uint32) bool {
	d := w.hw - seq
	return w.mask == 0 || seq > w.hw || d < width && w.mask>>d&1 == 0
}

// Fresh is Admits' verdict as an error: nil, or ErrReplay saying why.
func (w Window) Fresh(seq, width uint32) error {
	switch {
	case w.Admits(seq, width):
		return nil
	case w.hw-seq < width:
		return fmt.Errorf("%w: seq %d already seen", ErrReplay, seq)
	default:
		return fmt.Errorf("%w: seq %d <= high water %d", ErrReplay, seq, w.hw)
	}
}

// Record admits seq if it is fresh and reports whether it did. A jump of
// 64 or more above the high water leaves only seq (an unsigned shift by
// the width or more is 0).
//
// Allocations: 0, measured by TestReplayGuardAllocBudget.
func (w *Window) Record(seq, width uint32) bool {
	switch {
	case w.mask == 0 || seq > w.hw:
		w.advance(seq)
	case w.Admits(seq, width):
		w.mask |= 1 << (w.hw - seq)
	default:
		return false
	}
	return true
}

// advance raises the high water to seq, which is above it or the first
// the window sees.
func (w *Window) advance(seq uint32) {
	*w = Window{hw: seq, mask: w.mask<<(seq-w.hw) | 1}
}

// Seed raises the high water to seq without replaying the individual
// packets below it — rebuilding replay protection for readings whose raw
// copies were folded into rollup buckets, where only the maximum
// sequence number survives. The seeded sequence itself is marked seen
// (so an exact replay of the last folded packet is still rejected);
// unseen sequence numbers inside the reordering window below it remain
// admissible, the same bounded tolerance live ingest grants. A seed
// never lowers an existing mark, and one at or below it marks nothing.
func (w *Window) Seed(seq uint32) {
	if w.mask == 0 || seq > w.hw {
		w.advance(seq)
	}
}

// ReplayGuard rejects a sequence number its device has already used: one
// Window per device, in a map. Transmit-only devices count strictly
// upward from deployment, so a high-water mark per device suffices; a
// bounded reordering window below it admits gateway races.
type ReplayGuard struct {
	width   uint32
	devices map[lpwan.EUI64]Window
}

// NewReplayGuard returns a guard admitting the given reordering window,
// which may not exceed 64, the mask's width.
func NewReplayGuard(window uint32) *ReplayGuard {
	if window > 64 {
		panic(fmt.Sprintf("telemetry: replay window %d exceeds the 64-bit mask", window))
	}
	return &ReplayGuard{width: window, devices: make(map[lpwan.EUI64]Window)}
}

// Check reports whether Admit would accept p, without mutating the guard:
// Fresh's verdict without its error, for callers that count refusals.
//
// Allocations: 0, measured by TestReplayGuardAllocBudget.
func (g *ReplayGuard) Check(p Packet) bool {
	return g.devices[p.Device].Admits(p.Seq, g.width)
}

// Fresh reports whether Admit would accept the packet, without mutating
// the guard. Callers that must do fallible work between the freshness
// check and the commitment (e.g. a WAL append) use Fresh first and Admit
// only once the work succeeded, holding their own lock across both.
func (g *ReplayGuard) Fresh(p Packet) error {
	return g.devices[p.Device].Fresh(p.Seq, g.width)
}

// Record admits p if its sequence number is fresh and reports whether it
// did: Admit's verdict without its error.
//
// Allocations: 0 once the device is known, measured by
// TestReplayGuardAllocBudget.
func (g *ReplayGuard) Record(p Packet) bool {
	w := g.devices[p.Device]
	if !w.Record(p.Seq, g.width) {
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

// Seed is Window.Seed for one device.
func (g *ReplayGuard) Seed(dev lpwan.EUI64, seq uint32) {
	w := g.devices[dev]
	w.Seed(seq)
	g.devices[dev] = w
}

// Devices reports how many distinct devices the guard has seen.
func (g *ReplayGuard) Devices() int { return len(g.devices) }
