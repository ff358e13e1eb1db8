package telemetry

import (
	"bytes"
	"testing"
)

// FuzzVerify drives the packet verifier with arbitrary bytes: never
// panic, never verify anything that wasn't sealed with the key.
func FuzzVerify(f *testing.F) {
	key := Key(bytes.Repeat([]byte{0x5A}, 32))
	valid, err := Packet{Seq: 1, Value: 3.5}.Seal(key)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:20])
	f.Add(bytes.Repeat([]byte{0}, PacketSize))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Verify(data, key)
		if err != nil {
			return
		}
		// Anything that verifies must re-seal to the same bytes: the
		// format is canonical and the tag is deterministic.
		wire, err := p.Seal(key)
		if err != nil {
			t.Fatalf("verified packet failed to re-seal: %v", err)
		}
		if !bytes.Equal(wire, data) {
			t.Fatalf("round trip not canonical:\n in: %x\nout: %x", data, wire)
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
