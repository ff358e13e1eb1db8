package batch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

func pkt(fill byte) []byte {
	p := make([]byte, PacketSize)
	for i := range p {
		p[i] = fill
	}
	return p
}

func TestRoundTrip(t *testing.T) {
	frame, err := AppendFrame(nil, pkt(1), pkt(2), pkt(3))
	if err != nil {
		t.Fatal(err)
	}
	payload, n, err := Split(frame, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("n = %d, want 3", n)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(Packet(payload, i), pkt(byte(i+1))) {
			t.Fatalf("packet %d corrupted", i)
		}
	}
	if !IsFrame(frame) {
		t.Fatal("IsFrame rejected a sealed frame")
	}
}

func TestBuilderMatchesAppendFrame(t *testing.T) {
	var b Builder
	for i := 0; i < 5; i++ {
		if err := b.Add(pkt(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if b.Count() != 5 {
		t.Fatalf("Count = %d, want 5", b.Count())
	}
	got := b.Take()
	want, err := AppendFrame(nil, pkt(0), pkt(1), pkt(2), pkt(3), pkt(4))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("builder frame differs from one-shot frame:\n got %x\nwant %x", got, want)
	}
	if b.Count() != 0 || b.Take() != nil {
		t.Fatal("Take did not empty the builder")
	}
	// Ownership transfer: mutating the taken frame must not leak into
	// the next frame the builder seals.
	got[HeaderSize] ^= 0xFF
	if err := b.Add(pkt(9)); err != nil {
		t.Fatal(err)
	}
	next := b.Take()
	if _, _, err := Split(next, 0); err != nil {
		t.Fatalf("frame after ownership transfer corrupted: %v", err)
	}
}

func TestBuilderLimits(t *testing.T) {
	b := Builder{MaxPackets: 2}
	if err := b.Add(make([]byte, PacketSize-1)); !errors.Is(err, ErrBadPacket) {
		t.Fatalf("short packet: got %v, want ErrBadPacket", err)
	}
	if err := b.Add(pkt(1)); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(pkt(2)); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(pkt(3)); !errors.Is(err, ErrFull) {
		t.Fatalf("over cap: got %v, want ErrFull", err)
	}
}

func TestSplitRejections(t *testing.T) {
	valid, err := AppendFrame(nil, pkt(7), pkt(8))
	if err != nil {
		t.Fatal(err)
	}
	tornShort := valid[:HeaderSize-1]
	tornBody := valid[:len(valid)-1]
	crcFlip := append([]byte(nil), valid...)
	crcFlip[HeaderSize] ^= 0x01
	overCap, err := AppendFrame(nil, pkt(1), pkt(2), pkt(3))
	if err != nil {
		t.Fatal(err)
	}
	empty := make([]byte, HeaderSize)
	// Header consistent with body length but not a whole packet count.
	ragged := make([]byte, HeaderSize+PacketSize+1)
	binary.BigEndian.PutUint32(ragged[0:4], PacketSize+1)

	cases := []struct {
		name  string
		frame []byte
		max   int
		want  error
	}{
		{"torn header", tornShort, 0, ErrTornFrame},
		{"torn body", tornBody, 0, ErrTornFrame},
		{"crc flip", crcFlip, 0, ErrFrameCRC},
		{"zero packets", empty, 0, ErrFrameSize},
		{"over max packets", overCap, 2, ErrFrameSize},
		{"ragged count", ragged, 0, ErrBadCount},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := Split(tc.frame, tc.max); !errors.Is(err, tc.want) {
				t.Fatalf("Split = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestBatchAllocBudgets pins the frame codec's allocation budgets:
// Split and Packet cost 0 allocations per valid frame and per packet,
// a Builder costs 1 per frame — the buffer whose ownership Take hands to
// the caller — however many packets the frame holds, and Seal over
// packets written in place costs 0 and yields AppendFrame's bytes.
func TestBatchAllocBudgets(t *testing.T) {
	for _, n := range []int{16, 256} {
		packets := make([][]byte, n)
		for i := range packets {
			packets[i] = pkt(byte(i))
		}
		frame, err := AppendFrame(nil, packets...)
		if err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(100, func() {
			payload, k, err := Split(frame, 0)
			if err != nil || k != n {
				t.Fatalf("Split = %d packets, %v", k, err)
			}
			for i := 0; i < k; i++ {
				_ = Packet(payload, i)
			}
		}); got != 0 {
			t.Errorf("Split and %d Packet calls allocate %.0f times per frame, want 0", n, got)
		}

		inPlace := make([]byte, HeaderSize+n*PacketSize)
		for i, p := range packets {
			copy(inPlace[HeaderSize+i*PacketSize:], p)
		}
		if got := testing.AllocsPerRun(100, func() { Seal(inPlace) }); got != 0 {
			t.Errorf("Seal allocates %.0f times per %d-packet frame, want 0", got, n)
		}
		if !bytes.Equal(inPlace, frame) {
			t.Errorf("Seal over %d packets in place differs from AppendFrame", n)
		}

		b := Builder{MaxPackets: n}
		if got := testing.AllocsPerRun(100, func() {
			for _, p := range packets {
				if err := b.Add(p); err != nil {
					t.Fatal(err)
				}
			}
			if b.Take() == nil {
				t.Fatal("Take returned no frame")
			}
		}); got != 1 {
			t.Errorf("Builder allocates %.0f times per %d-packet frame, want 1", got, n)
		}
	}
}

func TestIsFrameDisjointFromBarePackets(t *testing.T) {
	if IsFrame(pkt(1)) {
		t.Fatal("a bare 24-byte packet classified as a frame")
	}
	frame, err := AppendFrame(nil, pkt(1))
	if err != nil {
		t.Fatal(err)
	}
	if !IsFrame(frame) {
		t.Fatal("a minimal one-packet frame not classified as a frame")
	}
	if IsFrame(frame[:len(frame)-1]) {
		t.Fatal("a torn frame classified as a frame")
	}
}
