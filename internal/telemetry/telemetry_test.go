package telemetry

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"centuryscale/internal/lpwan"
)

var testKey = Key(bytes.Repeat([]byte{0xAB}, 32))

func TestPacketIsExactly24Bytes(t *testing.T) {
	p := Packet{Device: lpwan.EUIFromUint64(1), Seq: 1, Sensor: SensorStrain, Value: 3.14, UptimeSeconds: 100}
	wire, err := p.Seal(testKey)
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) != 24 {
		t.Fatalf("packet = %d bytes, the paper's data-credit unit is 24", len(wire))
	}
}

func TestSealVerifyRoundTrip(t *testing.T) {
	p := Packet{
		Device:        lpwan.EUIFromUint64(0xfeed),
		Seq:           987654,
		Sensor:        SensorConcreteEMI,
		Value:         -42.5,
		UptimeSeconds: 1577836800, // ~50 years of seconds fits uint32
	}
	wire, err := p.Seal(testKey)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Verify(wire, testKey)
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, p)
	}
}

// TestVerifierAllocBudget pins the cached verifier at 0 allocations per
// packet, accepted or refused: it is what admission runs for every
// packet of every frame.
func TestVerifierAllocBudget(t *testing.T) {
	v, err := NewVerifier(testKey)
	if err != nil {
		t.Fatal(err)
	}
	good, err := Packet{Device: lpwan.EUIFromUint64(1), Seq: 1, Value: 20}.Seal(testKey)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[PacketSize-1] ^= 1
	for _, c := range []struct {
		name string
		wire []byte
		want error
	}{{"accepted", good, nil}, {"bad tag", bad, ErrBadTag}} {
		if got := testing.AllocsPerRun(1000, func() {
			if _, err := v.Verify(c.wire); err != c.want {
				t.Fatalf("%s: Verify = %v, want %v", c.name, err, c.want)
			}
		}); got != 0 {
			t.Errorf("%s: Verify allocates %.0f times per packet, want 0", c.name, got)
		}
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	p := Packet{Device: lpwan.EUIFromUint64(1), Seq: 1}
	wire, _ := p.Seal(testKey)
	other := Key(bytes.Repeat([]byte{0xCD}, 32))
	if _, err := Verify(wire, other); !errors.Is(err, ErrBadTag) {
		t.Fatalf("wrong key err = %v", err)
	}
}

func TestVerifyRejectsTamper(t *testing.T) {
	p := Packet{Device: lpwan.EUIFromUint64(1), Seq: 1, Value: 20}
	wire, _ := p.Seal(testKey)
	for _, idx := range []int{0, 8, 12, 13, 17, 21} {
		bad := append([]byte(nil), wire...)
		bad[idx] ^= 0x01
		if _, err := Verify(bad, testKey); err == nil {
			t.Fatalf("tamper at byte %d undetected", idx)
		}
	}
}

func TestBadSizes(t *testing.T) {
	if _, err := Parse(make([]byte, 23)); !errors.Is(err, ErrBadSize) {
		t.Fatalf("short err = %v", err)
	}
	if _, err := Verify(make([]byte, 25), testKey); !errors.Is(err, ErrBadSize) {
		t.Fatalf("long err = %v", err)
	}
}

func TestSealShortKey(t *testing.T) {
	if _, err := (Packet{}).Seal(Key("short")); !errors.Is(err, ErrShortKey) {
		t.Fatalf("short key err = %v", err)
	}
}

func TestSealRejectsNaN(t *testing.T) {
	p := Packet{Value: float32(math.NaN())}
	if _, err := p.Seal(testKey); !errors.Is(err, ErrValueNaN) {
		t.Fatalf("NaN err = %v", err)
	}
}

func TestDeriveKeyStableAndDistinct(t *testing.T) {
	master := []byte("fleet-master-secret")
	a1 := DeriveKey(master, lpwan.EUIFromUint64(1))
	a2 := DeriveKey(master, lpwan.EUIFromUint64(1))
	b := DeriveKey(master, lpwan.EUIFromUint64(2))
	if !bytes.Equal(a1, a2) {
		t.Fatal("key derivation not deterministic")
	}
	if bytes.Equal(a1, b) {
		t.Fatal("different devices derived the same key")
	}
	if len(a1) != 32 {
		t.Fatalf("derived key length = %d", len(a1))
	}
}

func TestRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(dev uint64, seq uint32, sensor uint8, value float32, up uint32) bool {
		if math.IsNaN(float64(value)) {
			return true // NaN rejected by design, covered elsewhere
		}
		p := Packet{
			Device:        lpwan.EUIFromUint64(dev),
			Seq:           seq,
			Sensor:        SensorType(sensor % 8),
			Value:         value,
			UptimeSeconds: up,
		}
		wire, err := p.Seal(testKey)
		if err != nil {
			return false
		}
		got, err := Verify(wire, testKey)
		return err == nil && got == p
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSensorTypeNames(t *testing.T) {
	if SensorBinFill.String() != "bin-fill" || SensorConcreteEMI.String() != "concrete-emi" {
		t.Fatal("sensor names wrong")
	}
	if SensorType(200).String() != "sensor(200)" {
		t.Fatal("unknown sensor fallback wrong")
	}
}

func mkPacket(dev uint64, seq uint32) Packet {
	return Packet{Device: lpwan.EUIFromUint64(dev), Seq: seq}
}

func TestReplayGuardMonotone(t *testing.T) {
	g := NewReplayGuard(0)
	if err := g.Admit(mkPacket(1, 5)); err != nil {
		t.Fatal(err)
	}
	if err := g.Admit(mkPacket(1, 6)); err != nil {
		t.Fatal(err)
	}
	if err := g.Admit(mkPacket(1, 6)); !errors.Is(err, ErrReplay) {
		t.Fatalf("duplicate seq admitted: %v", err)
	}
	if err := g.Admit(mkPacket(1, 4)); !errors.Is(err, ErrReplay) {
		t.Fatalf("stale seq admitted: %v", err)
	}
}

func TestReplayGuardPerDevice(t *testing.T) {
	g := NewReplayGuard(0)
	if err := g.Admit(mkPacket(1, 100)); err != nil {
		t.Fatal(err)
	}
	// A different device with a lower seq is fine.
	if err := g.Admit(mkPacket(2, 5)); err != nil {
		t.Fatal(err)
	}
	if g.Devices() != 2 {
		t.Fatalf("devices = %d", g.Devices())
	}
}

func TestReplayGuardWindow(t *testing.T) {
	g := NewReplayGuard(4)
	if err := g.Admit(mkPacket(1, 10)); err != nil {
		t.Fatal(err)
	}
	// Out-of-order arrival within the window: admitted once.
	if err := g.Admit(mkPacket(1, 8)); err != nil {
		t.Fatalf("in-window seq rejected: %v", err)
	}
	if err := g.Admit(mkPacket(1, 8)); !errors.Is(err, ErrReplay) {
		t.Fatal("in-window duplicate admitted")
	}
	// Far below the window: rejected.
	if err := g.Admit(mkPacket(1, 2)); !errors.Is(err, ErrReplay) {
		t.Fatal("below-window seq admitted")
	}
}

// TestReplayGuardWraparound pins the uint64-widened window arithmetic at
// the top of the uint32 sequence space. The narrow forms overflowed two
// ways: Fresh's p.Seq+Window >= hw+1 wrapped hw+1 to 0 once hw hit
// MaxUint32, admitting arbitrarily stale replays, and pruneSeen's
// s+Window < hw wrapped s+Window small, forgetting in-window sequence
// numbers that must stay rejected.
func TestReplayGuardWraparound(t *testing.T) {
	const max = math.MaxUint32

	cases := []struct {
		name   string
		window uint32
		admit  []uint32 // admitted in order; all must succeed
		seq    uint32   // then probed via Admit
		replay bool     // probe must be rejected as a replay
	}{
		{"stale far below hw at MaxUint32", 16, []uint32{max}, 100, true},
		{"stale just below window at MaxUint32", 16, []uint32{max}, max - 16, true},
		{"in-window fresh at MaxUint32", 16, []uint32{max}, max - 15, false},
		{"in-window duplicate at MaxUint32", 16, []uint32{max, max - 8}, max - 8, true},
		{"duplicate hw at MaxUint32", 16, []uint32{max}, max, true},
		{"strict monotone at MaxUint32", 0, []uint32{max}, max - 1, true},
		{"hw just under the wrap", 16, []uint32{max - 1}, max, false},
		{"low-seq window unchanged", 16, []uint32{20}, 10, false},
		{"low-seq stale unchanged", 16, []uint32{20}, 3, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := NewReplayGuard(tc.window)
			for _, s := range tc.admit {
				if err := g.Admit(mkPacket(1, s)); err != nil {
					t.Fatalf("setup admit seq %d: %v", s, err)
				}
			}
			err := g.Admit(mkPacket(1, tc.seq))
			if tc.replay && !errors.Is(err, ErrReplay) {
				t.Fatalf("seq %d admitted, want replay rejection (err=%v)", tc.seq, err)
			}
			if !tc.replay && err != nil {
				t.Fatalf("seq %d rejected: %v", tc.seq, err)
			}
		})
	}
}

// TestReplayGuardPruneNearWrap drives the high-water mark to the top of
// the sequence space and checks the window there: a seq inside it stays
// remembered (its replay is "already seen"), one that the last advance
// pushed out of it is refused by the high water, and an unseen seq inside
// it still lands.
func TestReplayGuardPruneNearWrap(t *testing.T) {
	const max = math.MaxUint32
	g := NewReplayGuard(8)
	for _, s := range []uint32{max - 10, max - 4, max} {
		if err := g.Admit(mkPacket(1, s)); err != nil {
			t.Fatalf("admit %d: %v", s, err)
		}
	}
	for _, c := range []struct {
		seq  uint32
		want string // "" admits
	}{
		{max - 4, "already seen"},
		{max - 10, "high water"},
		{max - 8, "high water"},
		{max - 7, ""},
	} {
		err := g.Admit(mkPacket(1, c.seq))
		if c.want == "" && err != nil || c.want != "" && (!errors.Is(err, ErrReplay) || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("Admit(MaxUint32-%d) = %v, want %q", max-c.seq, err, c.want)
		}
	}
}

// TestReplayGuardPrunes: a device that has counted for 50 years keeps the
// state of one that has just started. After 10,000 admissions, admitting
// more allocates nothing, every earlier seq is refused, and the window
// below the high water still holds exactly what was admitted.
func TestReplayGuardPrunes(t *testing.T) {
	g := NewReplayGuard(8)
	seq := uint32(0)
	for seq < 10000 {
		seq++
		if err := g.Admit(mkPacket(1, seq)); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(1000, func() {
		seq++
		if !g.Record(mkPacket(1, seq)) {
			t.Fatalf("seq %d refused", seq)
		}
	}); got != 0 {
		t.Errorf("admitting the next seq allocates %.0f times; the guard must not grow with a device's age", got)
	}
	for s := uint32(1); s <= seq; s++ {
		if g.Check(mkPacket(1, s)) {
			t.Fatalf("seq %d of %d admissible again", s, seq)
		}
	}
	if g.Devices() != 1 {
		t.Fatalf("devices = %d", g.Devices())
	}
}

// TestReplayGuardAllocBudget pins the guard's verdicts at 0 allocations
// for a known device: Check on either answer, and Record advancing,
// filling the window, and refusing. They are what admission runs for
// every packet of every frame, a re-offered one included.
func TestReplayGuardAllocBudget(t *testing.T) {
	g := NewReplayGuard(16)
	seq := uint32(100)
	g.Seed(lpwan.EUIFromUint64(1), seq)
	for _, c := range []struct {
		name string
		op   func() bool
		want bool
	}{
		{"Check fresh", func() bool { return g.Check(mkPacket(1, seq+1)) }, true},
		{"Check replay", func() bool { return g.Check(mkPacket(1, seq)) }, false},
		{"Record advance", func() bool { seq += 2; return g.Record(mkPacket(1, seq)) }, true},
		{"Record in window", func() bool { seq += 2; g.Record(mkPacket(1, seq)); return g.Record(mkPacket(1, seq-1)) }, true},
		{"Record replay", func() bool { return g.Record(mkPacket(1, seq)) }, false},
	} {
		if got := testing.AllocsPerRun(1000, func() {
			if v := c.op(); v != c.want {
				t.Fatalf("%s = %v, want %v", c.name, v, c.want)
			}
		}); got != 0 {
			t.Errorf("%s allocates %.0f times per packet, want 0", c.name, got)
		}
	}
}

func TestReplayGuardWindowAboveMaskPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewReplayGuard(65) did not panic")
		}
	}()
	NewReplayGuard(65)
}

// checkAgainstMapGuard decodes ops into a stream of Fresh, Admit, Record
// and Seed calls over four devices and runs it against the bitmap guard
// and the map guard it replaced, failing on the first verdict, error text
// or device count that differs. Each op is five bytes: the call, the
// device and how to read the next four bytes as a seq — a step above the
// device's high water (up to 127, so half are jumps of 64 or more), a
// step below it, a seq near MaxUint32, or the bytes as they are. At the
// end every seq within 70 of each high water is probed with Fresh.
func checkAgainstMapGuard(t *testing.T, window uint32, ops []byte) {
	t.Helper()
	g, m := NewReplayGuard(window), newMapGuard(window)
	errText := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	for len(ops) >= 5 {
		b, v := ops[0], binary.BigEndian.Uint32(ops[1:5])
		ops = ops[5:]
		p := mkPacket(uint64(b>>2&3), 0)
		switch hw := m.highWater[p.Device]; b >> 4 & 3 {
		case 0:
			p.Seq = hw + v%128
		case 1:
			p.Seq = hw - v%128
		case 2:
			p.Seq = math.MaxUint32 - v%128
		default:
			p.Seq = v
		}
		switch b & 3 {
		case 0:
			want := m.Fresh(p)
			if got := g.Fresh(p); errText(got) != errText(want) {
				t.Fatalf("window %d: Fresh(%v, %d) = %v, map guard %v", window, p.Device, p.Seq, got, want)
			}
			if got := g.Check(p); got != (want == nil) {
				t.Fatalf("window %d: Check(%v, %d) = %v, map guard %v", window, p.Device, p.Seq, got, want)
			}
		case 1:
			if got, want := g.Admit(p), m.Admit(p); errText(got) != errText(want) {
				t.Fatalf("window %d: Admit(%v, %d) = %v, map guard %v", window, p.Device, p.Seq, got, want)
			}
		case 2:
			if got, want := g.Record(p), m.Admit(p); got != (want == nil) {
				t.Fatalf("window %d: Record(%v, %d) = %v, map guard %v", window, p.Device, p.Seq, got, want)
			}
		default:
			g.Seed(p.Device, p.Seq)
			m.Seed(p.Device, p.Seq)
		}
		if g.Devices() != m.Devices() {
			t.Fatalf("window %d: Devices = %d, map guard %d", window, g.Devices(), m.Devices())
		}
	}
	for dev, hw := range m.highWater {
		for d := uint64(0); d <= 70 && d <= uint64(hw)+1; d++ {
			p := Packet{Device: dev, Seq: uint32(uint64(hw) + 1 - d)}
			if got, want := g.Fresh(p), m.Fresh(p); errText(got) != errText(want) {
				t.Fatalf("window %d: final Fresh(%v, %d) = %v, map guard %v", window, dev, p.Seq, got, want)
			}
		}
	}
}

// TestReplayGuardMatchesMapGuard is the differential check on the bitmap
// guard: random mixes of Fresh, Admit, Record and Seed, with steps across
// and beyond the 64-bit mask and sequences at the top of the uint32 space,
// must get the map guard's verdicts and error strings at every window
// width the mask can hold.
func TestReplayGuardMatchesMapGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ops := make([]byte, 5*400)
	for _, w := range []uint32{0, 1, 4, 8, 16, 63, 64} {
		for run := 0; run < 200; run++ {
			rng.Read(ops)
			checkAgainstMapGuard(t, w, ops)
		}
	}
}

// BenchmarkReplayGuard is the guard as admission runs it: Fresh then
// Admit, packets round-robin over 256 devices each counting upward.
func BenchmarkReplayGuard(b *testing.B) {
	const devices = 256
	g := NewReplayGuard(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := mkPacket(uint64(i%devices), uint32(i/devices))
		if err := g.Fresh(p); err != nil {
			b.Fatal(err)
		}
		if err := g.Admit(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSealVerify(b *testing.B) {
	p := Packet{Device: lpwan.EUIFromUint64(1), Seq: 1, Value: 1.5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Seq = uint32(i)
		wire, err := p.Seal(testKey)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Verify(wire, testKey); err != nil {
			b.Fatal(err)
		}
	}
}
