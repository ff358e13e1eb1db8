package tsdb

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"centuryscale/internal/lpwan"
)

// FuzzWALDecode drives the frame decoder with arbitrary bytes, the way
// a corrupted disk or a hostile file would: it must never panic, never
// allocate beyond MaxFrame for a payload, and anything it does decode
// must re-encode to the exact bytes it came from (the framing is
// canonical). Mirrors internal/telemetry's FuzzVerify discipline.
func FuzzWALDecode(f *testing.F) {
	// Seed with valid frames so the fuzzer starts from the real format.
	valid := AppendRecord(nil, Point{
		Device: lpwan.EUIFromUint64(0xCAFE),
		At:     42 * time.Hour,
		Seq:    7,
		Sensor: 3,
		Value:  2.5,
		Uptime: 99,
	})
	two := AppendRecord(append([]byte(nil), valid...), Point{Device: lpwan.EUIFromUint64(1), Seq: 1})
	f.Add(valid)
	f.Add(two)
	f.Add(valid[:len(valid)-5])           // torn tail
	f.Add(bytes.Repeat([]byte{0xFF}, 64)) // garbage length prefix
	f.Add(bytes.Repeat([]byte{0x00}, 64)) // zero length prefix
	corrupted := append([]byte(nil), valid...)
	corrupted[frameHeader+4] ^= 0x20 // payload bit flip -> CRC mismatch
	f.Add(corrupted)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		buf := make([]byte, frameHeader+MaxFrame)
		for {
			payload, err := readFrame(r, buf)
			if errors.Is(err, io.EOF) {
				return
			}
			if err != nil {
				// Any corruption classification is fine; what matters is
				// that it IS classified, not panicked on.
				if !errors.Is(err, ErrTornFrame) && !errors.Is(err, ErrFrameSize) && !errors.Is(err, ErrFrameCRC) {
					t.Fatalf("unclassified decode error: %v", err)
				}
				return
			}
			if len(payload) > MaxFrame {
				t.Fatalf("decoder over-allocated: %d bytes", len(payload))
			}
			p, err := decodePoint(payload)
			if err != nil {
				if !errors.Is(err, ErrBadRecord) {
					t.Fatalf("unclassified record error: %v", err)
				}
				return
			}
			// Canonical: a decoded point re-frames to identical bytes.
			reframed := AppendRecord(nil, p)
			if !bytes.Equal(reframed[frameHeader:], payload) {
				t.Fatalf("round trip not canonical:\n in: %x\nout: %x", payload, reframed[frameHeader:])
			}
		}
	})
}
