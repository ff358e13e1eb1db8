package telemetry

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// FuzzVerify drives the packet verifiers with arbitrary bytes under
// arbitrary keys of 16 to 100 bytes, so keys longer than the 64-byte
// block, which HMAC hashes first, are reached: never panic, never verify
// anything that wasn't sealed with the key, and the pad-state verifier
// (Hasher over an Auth) gives crypto/hmac's verdict and packet on every
// input. That pins the reliance on sha256's marshaled-state format.
func FuzzVerify(f *testing.F) {
	key := bytes.Repeat([]byte{0x5A}, 32)
	valid, err := Packet{Seq: 1, Value: 3.5}.Seal(key)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, key)
	f.Add(valid[:20], key)
	f.Add(bytes.Repeat([]byte{0}, PacketSize), key)
	nan := bytes.Repeat([]byte{'0'}, PacketSize) // the value field's bits are a NaN
	copy(nan[13:], []byte{0xff, 0x80})
	f.Add(nan, []byte("0"))
	for _, n := range []int{16, 64, 65, 100} {
		k := bytes.Repeat([]byte{byte(n)}, n)
		w, err := Packet{Seq: 7, Value: -1}.Seal(k)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(w, k)
	}

	f.Fuzz(func(t *testing.T, data, keyBytes []byte) {
		key := Key(bytes.Clone(keyBytes[:min(len(keyBytes), 100)]))
		for len(key) < 16 {
			key = append(key, 0)
		}
		v, err := NewVerifier(key)
		if err != nil {
			t.Fatal(err)
		}
		agree := func(wire []byte) (Packet, error) {
			want, werr := Verify(wire, key)
			got, gerr := v.Verify(wire)
			// Values compare by their bits: Parse passes NaN through.
			bits := math.Float32bits
			same := got.Device == want.Device && got.Seq == want.Seq && got.Sensor == want.Sensor &&
				bits(got.Value) == bits(want.Value) && got.UptimeSeconds == want.UptimeSeconds
			if !same || fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("key %x, wire %x: pad-state verifier gave %+v, %v; crypto/hmac %+v, %v", key, wire, got, gerr, want, werr)
			}
			return want, werr
		}
		p, err := agree(data)
		if err == nil {
			// Anything that verifies must re-seal to the same bytes: the
			// format is canonical and the tag is deterministic.
			wire, err := p.Seal(key)
			if err != nil {
				t.Fatalf("verified packet failed to re-seal: %v", err)
			}
			if !bytes.Equal(wire, data) {
				t.Fatalf("round trip not canonical:\n in: %x\nout: %x", data, wire)
			}
		}
		// The same fields sealed under the key verify under both.
		if p, err := Parse(data); err == nil {
			if wire, err := p.Seal(key); err == nil {
				if _, err := agree(wire); err != nil {
					t.Fatalf("key %x: freshly sealed %x refused: %v", key, wire, err)
				}
			}
		}
	})
}

// FuzzReplayGuard runs an op stream decoded from the fuzz bytes against
// the bitmap guard and the map guard it replaced (checkAgainstMapGuard):
// every verdict and error string must agree, at any window the 64-bit mask
// can hold.
func FuzzReplayGuard(f *testing.F) {
	for _, w := range []uint8{0, 1, 16, 63, 64} {
		// Seed at 1000, three steps up (one by 100), a replay, a step
		// below, a seq near MaxUint32.
		f.Add(w, []byte{
			0x03, 0, 0, 0x03, 0xe8,
			0x01, 0, 0, 0, 1, 0x01, 0, 0, 0, 100, 0x02, 0, 0, 0, 3,
			0x01, 0, 0, 0, 0, 0x11, 0, 0, 0, 5, 0x21, 0, 0, 0, 2,
		})
	}
	f.Fuzz(func(t *testing.T, window uint8, ops []byte) {
		checkAgainstMapGuard(t, uint32(window)%65, ops)
	})
}
