package tsdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"centuryscale/internal/lpwan"
)

// runOf returns k points of distinct devices that share one arrival.
func runOf(k int, at time.Duration) []Point {
	ps := make([]Point, k)
	for i := range ps {
		ps[i] = Point{Device: lpwan.EUIFromUint64(uint64(0xC0DE + i)), At: at, Seq: uint32(7 + i), Sensor: uint8(i % 5), Value: float32(i) / 4, Uptime: uint32(99 * i)}
	}
	return ps
}

// framed wraps payload in a frame header with a correct CRC.
func framed(payload []byte) []byte {
	rec := make([]byte, frameHeader, frameHeader+len(payload))
	binary.BigEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(rec[4:8], crc32.Checksum(payload, castagnoli))
	return append(rec, payload...)
}

// runRefusals are arrival-run frames the decoder must refuse, however
// sound their CRC: no entries, lengths not of the form 9+21k, a run too
// long for MaxFrame (refused at the length prefix, so its frame is the
// header alone), and a type this build does not know.
var runRefusals = []struct {
	name  string
	frame []byte
	want  error
}{
	{"k=0", framed(appendRun(nil, runOf(1, time.Hour))[frameHeader : frameHeader+runHeader]), ErrBadRecord},
	{"entry short a byte", framed(appendRun(nil, runOf(2, time.Hour))[frameHeader : frameHeader+runHeader+2*runEntry-1]), ErrBadRecord},
	{"entry and a byte", framed(append(appendRun(nil, runOf(1, time.Hour))[frameHeader:], 0)), ErrBadRecord},
	{"arrival only half there", framed([]byte{recordRun, 0, 0, 0, 0}), ErrBadRecord},
	{"k=maxRun+1", binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, runHeader+runEntry*(maxRun+1)), 0), ErrFrameSize},
	{"unknown type", framed(append([]byte{0x04}, appendRun(nil, runOf(1, time.Hour))[frameHeader+1:]...)), ErrUnknownRecord},
}

// TestRunRecordRefusals: after an intact run, each refused frame ends
// the read with its error, and the intact prefix is exactly the run.
func TestRunRecordRefusals(t *testing.T) {
	head := appendRun(nil, runOf(3, time.Minute))
	for _, tc := range runRefusals {
		t.Run(tc.name, func(t *testing.T) {
			var got []Point
			n, good, err := DecodeRecords(bytes.NewReader(append(append([]byte(nil), head...), tc.frame...)), func(p Point) { got = append(got, p) })
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if n != 3 || len(got) != 3 || good != int64(len(head)) {
				t.Fatalf("intact prefix: %d points, %d emitted, %d bytes; want 3, 3, %d", n, len(got), good, len(head))
			}
		})
	}
}

// seriesOf returns n points of one device, arriving about an hour apart
// with a few seconds of jitter, and the sequence number, uptime, sensor
// and value moving as a reporter's do.
func seriesOf(dev uint64, n int, from time.Duration) []Point {
	ps := make([]Point, n)
	for i := range ps {
		at := from + time.Duration(i)*time.Hour + time.Duration(i*i%7)*time.Second
		ps[i] = Point{Device: lpwan.EUIFromUint64(dev), At: at, Seq: uint32(100 + i), Sensor: uint8(1 + i%2), Value: float32(i%24) / 2, Uptime: uint32(at / time.Second)}
	}
	return ps
}

// runPoint is the shortest device-run point: arrival 0 (delta-of-delta 0),
// sequence number 1 (delta 1), sensor 5, value 1.0, uptime 0.
var runPoint = []byte{0x00, 0x02, 0x05, 0x3f, 0x80, 0, 0, 0x00}

// deviceRun is a device-run payload for device 7 with the given points'
// bytes, framed with a correct CRC.
func deviceRun(points ...byte) []byte {
	return framed(append([]byte{recordDeviceRun, 0, 0, 0, 0, 0, 0, 0, 7}, points...))
}

// TestAppendDeviceRuns pins what a tail writes for its series: one device
// run per device, split where the next point would pass MaxFrame, the
// delta state restarted in each record, and every point back in order on
// decode, with the uptime falling back (a reboot) and the sequence number
// wrapping through 32 bits.
func TestAppendDeviceRuns(t *testing.T) {
	ps := seriesOf(1, 3, time.Hour)
	ps = append(ps, seriesOf(2, 1500, 90*24*time.Hour)...)
	ps[5].Uptime, ps[6].Uptime = 12, 3612
	ps[7].Seq, ps[8].Seq = math.MaxUint32, 0
	ps = append(ps, seriesOf(3, 1, 0)...)
	log := AppendDeviceRuns(nil, ps)
	var sizes []int
	for off := 0; off < len(log); off += frameHeader + sizes[len(sizes)-1] {
		sizes = append(sizes, int(binary.BigEndian.Uint32(log[off:])))
		if log[off+frameHeader] != recordDeviceRun || sizes[len(sizes)-1] > MaxFrame {
			t.Fatalf("record %d: type %#x, %d bytes", len(sizes), log[off+frameHeader], sizes[len(sizes)-1])
		}
	}
	if len(sizes) < 5 || sizes[1] < MaxFrame-25 {
		t.Fatalf("records of %v bytes: want device 2 split only where a record is full", sizes)
	}
	var got []Point
	n, good, err := DecodeRecords(bytes.NewReader(log), func(p Point) { got = append(got, p) })
	if err != nil || n != uint64(len(ps)) || good != int64(len(log)) {
		t.Fatalf("decode: %d points, %d bytes, %v", n, good, err)
	}
	for i := range ps {
		if got[i] != ps[i] {
			t.Fatalf("point %d: got %+v, want %+v", i, got[i], ps[i])
		}
	}
	// Seconds of jitter are five bytes of arrival in nanoseconds; the
	// sensor, the value and one-byte sequence and uptime deltas are seven.
	if per := float64(len(log)) / float64(len(ps)); per > 13 {
		t.Errorf("%.2f bytes a reading, want at most 13", per)
	}
}

// deviceRunRefusals are device-run payloads the decoder must refuse,
// however sound their CRC, each with the words its error must contain:
// every rule that keeps the encoding canonical and every bound, one body
// each.
var deviceRunRefusals = []struct {
	name  string
	frame []byte
	want  string
}{
	{"no points", deviceRun(), "of no points"},
	{"device cut short", framed([]byte{recordDeviceRun, 0, 0, 0}), "shorter than its device"},
	{"non-minimal varint", deviceRun(append([]byte{0x80}, runPoint...)...), "not minimal"},
	{"varint past 64 bits", deviceRun(0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0x02, 0x05, 0x3f, 0x80, 0, 0, 0x00), "overflows 64 bits"},
	{"sequence number below zero", deviceRun(0x00, 0x01, 0x05, 0x3f, 0x80, 0, 0, 0x00), "outside 32 bits"},
	{"sequence number past 32 bits", deviceRun(append(binary.AppendVarint([]byte{0x00}, 1<<32), 0x05, 0x3f, 0x80, 0, 0, 0x00)...), "outside 32 bits"},
	{"uptime below zero", deviceRun(0x00, 0x02, 0x05, 0x3f, 0x80, 0, 0, 0x01), "outside 32 bits"},
	{"uptime past 32 bits", deviceRun(binary.AppendVarint([]byte{0x00, 0x02, 0x05, 0x3f, 0x80, 0, 0}, 1<<32)...), "outside 32 bits"},
	{"value cut short", deviceRun(0x00, 0x02, 0x05, 0x3f, 0x80), "short"},
	{"trailing byte", deviceRun(append(append([]byte(nil), runPoint...), 0x00)...), "short"},
}

// TestDeviceRunRefusals: the decoder takes the one valid point, and after
// an intact device run each refused frame ends the read as ErrBadRecord,
// naming the rule, with the intact prefix exactly the run and none of the
// refused frame's points emitted.
func TestDeviceRunRefusals(t *testing.T) {
	var one []Point
	if _, _, err := DecodeRecords(bytes.NewReader(deviceRun(runPoint...)), func(p Point) { one = append(one, p) }); err != nil ||
		len(one) != 1 || one[0] != (Point{Device: lpwan.EUIFromUint64(7), Seq: 1, Sensor: 5, Value: 1}) {
		t.Fatalf("valid point: %+v, %v", one, err)
	}
	head := AppendDeviceRuns(nil, seriesOf(9, 3, time.Hour))
	for _, tc := range deviceRunRefusals {
		t.Run(tc.name, func(t *testing.T) {
			var got []Point
			n, good, err := DecodeRecords(bytes.NewReader(append(append([]byte(nil), head...), tc.frame...)), func(p Point) { got = append(got, p) })
			if !errors.Is(err, ErrBadRecord) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want ErrBadRecord saying %q", err, tc.want)
			}
			if n != 3 || len(got) != 3 || good != int64(len(head)) {
				t.Fatalf("intact prefix: %d points, %d emitted, %d bytes; want 3, 3, %d", n, len(got), good, len(head))
			}
		})
	}
}

// TestAppendLogRuns pins what the WAL writes for a shard's group: one
// arrival run per run of points sharing At, split at maxRun, 17 + 21k
// bytes each, a lone point as its 38-byte point record, and every point
// back in order on decode.
func TestAppendLogRuns(t *testing.T) {
	var ps []Point
	ps = append(ps, runOf(256, time.Hour)...)      // split 194 + 62
	ps = append(ps, runOf(1, 2*time.Hour)...)      // lone: a point record
	ps = append(ps, runOf(maxRun, 3*time.Hour)...) // exactly one full run
	ps = append(ps, runOf(2, 4*time.Hour)...)
	log := appendLog(nil, ps)
	want := 17*2 + 21*256 + RecordSize + 17 + 21*maxRun + 17 + 21*2
	if len(log) != want {
		t.Fatalf("%d bytes, want %d", len(log), want)
	}
	var types []byte
	for off := 0; off < len(log); off += frameHeader + int(binary.BigEndian.Uint32(log[off:])) {
		types = append(types, log[off+frameHeader])
	}
	if !bytes.Equal(types, []byte{recordRun, recordRun, recordPoint, recordRun, recordRun}) {
		t.Fatalf("record types %x", types)
	}
	var got []Point
	n, good, err := DecodeRecords(bytes.NewReader(log), func(p Point) { got = append(got, p) })
	if err != nil || n != uint64(len(ps)) || good != int64(len(log)) {
		t.Fatalf("decode: %d points, %d bytes, %v", n, good, err)
	}
	for i := range ps {
		if got[i] != ps[i] {
			t.Fatalf("point %d: got %+v, want %+v", i, got[i], ps[i])
		}
	}
}

// resealed returns a copy of data with the CRC of every frame whose
// length field is within MaxFrame and keeps it inside data recomputed,
// so that a mutation of a payload reaches the record decoders instead of
// stopping at the checksum. The checksum's own refusal is
// TestRecoveryFlippedCRCByte's.
func resealed(data []byte) []byte {
	out := append([]byte(nil), data...)
	for off := 0; off+frameHeader <= len(out); {
		n := binary.BigEndian.Uint32(out[off:])
		end := off + frameHeader + int(n)
		if n > MaxFrame || end > len(out) {
			break
		}
		binary.BigEndian.PutUint32(out[off+4:], crc32.Checksum(out[off+frameHeader:end], castagnoli))
		off = end
	}
	return out
}

// FuzzWALDecode drives the frame decoder with arbitrary bytes, the way
// a corrupted disk or a hostile file would, every in-bounds frame
// resealed first (resealed): it must never panic, never allocate beyond
// MaxFrame for a payload, refuse what FORMAT.md refuses (a run of no
// points, a run length not 9+21k, a device run that is not canonical, a
// length above MaxFrame, and as ErrUnknownRecord every type but 0x01,
// 0x02 and 0x03), and anything it does decode, of any record type, must
// re-encode to the exact bytes it came from (the framing is canonical).
// Mirrors internal/telemetry's FuzzVerify discipline.
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
	// Seeds stay small: the fuzzer minimizes every new input it finds,
	// and minimizing a kilobyte-long one stalls it for seconds.
	run := appendRun(nil, runOf(3, 42*time.Hour))
	f.Add(valid)
	f.Add(two)
	f.Add(run)
	f.Add(appendLog(append([]byte(nil), valid...), append(runOf(2, time.Hour), runOf(1, 2*time.Hour)...)))
	f.Add(appendRun(nil, runOf(1, 0)))
	for _, tc := range runRefusals {
		f.Add(append(append([]byte(nil), run...), tc.frame...))
	}
	devRun := AppendDeviceRuns(nil, seriesOf(0xCAFE, 4, 42*time.Hour))
	f.Add(devRun)
	f.Add(deviceRun(runPoint...))
	for _, tc := range deviceRunRefusals {
		f.Add(append(append([]byte(nil), devRun...), tc.frame...))
	}
	f.Add(valid[:len(valid)-5])           // torn tail
	f.Add(run[:len(run)-5])               // torn run
	f.Add(bytes.Repeat([]byte{0xFF}, 64)) // garbage length prefix
	f.Add(bytes.Repeat([]byte{0x00}, 64)) // zero length prefix
	corrupted := append([]byte(nil), valid...)
	corrupted[frameHeader+4] ^= 0x20 // payload bit flip, resealed: reaches the decoder
	f.Add(corrupted)

	f.Fuzz(func(t *testing.T, data []byte) {
		data = resealed(data)
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
			var pts, scratch []Point
			n, err := decodePayload(payload, &scratch, func(p Point) { pts = append(pts, p) })
			if err != nil {
				// A known type that does not decode is damage; any other
				// type is a record this build cannot read (K9).
				want := ErrUnknownRecord
				if payload[0] == recordPoint || payload[0] == recordRun || payload[0] == recordDeviceRun {
					want = ErrBadRecord
				}
				if !errors.Is(err, want) {
					t.Fatalf("record type %#x: error %v, want %v", payload[0], err, want)
				}
				if len(pts) != 0 {
					t.Fatalf("refused payload emitted %d points", len(pts))
				}
				return
			}
			// Canonical: decoded points re-frame to identical bytes.
			var reframed []byte
			switch payload[0] {
			case recordPoint:
				reframed = AppendRecord(nil, pts[0])
			case recordRun:
				if n < 1 || n > maxRun || len(payload) != runHeader+runEntry*n {
					t.Fatalf("accepted a run of %d points in %d bytes", n, len(payload))
				}
				reframed = appendRun(nil, pts)
			case recordDeviceRun:
				if n < 1 || n > maxDevicePoints {
					t.Fatalf("accepted a device run of %d points in %d bytes", n, len(payload))
				}
				reframed = AppendDeviceRuns(nil, pts)
			default:
				t.Fatalf("accepted record type %#x", payload[0])
			}
			if n != len(pts) {
				t.Fatalf("decoder reported %d points, emitted %d", n, len(pts))
			}
			if !bytes.Equal(reframed[frameHeader:], payload) {
				t.Fatalf("round trip not canonical:\n in: %x\nout: %x", payload, reframed[frameHeader:])
			}
		}
	})
}
