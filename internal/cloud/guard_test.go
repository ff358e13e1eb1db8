package cloud

import (
	"errors"
	"math"
	"testing"
	"time"

	"centuryscale/internal/lpwan"
	"centuryscale/internal/telemetry"
)

// TestReplayWindowEdges drives the replay guard's window edges through the
// store: offsets 0, 1, W−1, W and W+1 below the high water, advances of 63,
// 64 and 65, a high water at MaxUint32−1 and at MaxUint32, and a Seed below
// an existing mark. Each case is offered by Ingest and by IngestBatch, to a
// store that admitted the setup live, to one that rebuilt its guard from
// the WAL (ReplayWAL), and to one restored from a checkpoint that folded
// the early readings into rollup buckets (LoadFile, whose guard learns
// them through Seed). The two routes must agree everywhere.
//
// Only a device's highest folded seq survives a fold (rollup MaxSeq), and
// a Seed at or below the high water the raw tail restored marks nothing:
// after such a restore a folded seq inside the window is admissible again.
// That is Seed's documented bound, pinned by the restored column.
func TestReplayWindowEdges(t *testing.T) {
	const (
		h   = 1000
		w   = replayWindow
		max = math.MaxUint32
		dev = 1
	)
	cases := []struct {
		name     string
		folded   []uint32 // offered early: folded by the restore's checkpoint
		raw      []uint32 // offered late: raw in every state
		probe    uint32
		fresh    bool // the verdict live and after ReplayWAL
		restored bool // the verdict after LoadFile
	}{
		{"d=0", []uint32{h}, nil, h, false, false},
		{"d=1", []uint32{h}, nil, h - 1, true, true},
		{"d=1 seen", nil, []uint32{h - 1, h}, h - 1, false, false},
		{"d=W-1", []uint32{h}, nil, h - (w - 1), true, true},
		{"d=W", []uint32{h}, nil, h - w, false, false},
		{"d=W+1", []uint32{h}, nil, h - (w + 1), false, false},
		{"advance 63", []uint32{h}, []uint32{h + 63}, h, false, false},
		{"advance 64", []uint32{h}, []uint32{h + 64}, h, false, false},
		{"advance 65", []uint32{h}, []uint32{h + 65}, h, false, false},
		{"advance 64, unseen below", []uint32{h}, []uint32{h + 64}, h + 63, true, true},
		{"hw MaxUint32-1, next", []uint32{max - 1}, nil, max, true, true},
		{"hw MaxUint32-1, replay", []uint32{max - 1}, nil, max - 1, false, false},
		{"hw MaxUint32, replay", []uint32{max}, nil, max, false, false},
		{"hw MaxUint32, d=W-1", []uint32{max}, nil, max - (w - 1), true, true},
		{"hw MaxUint32, d=W", []uint32{max}, nil, max - w, false, false},
		{"hw MaxUint32, far below", []uint32{max}, nil, 100, false, false},
		{"Seed below an existing mark", []uint32{h}, []uint32{h + 10}, h, false, true},
		{"Seed below an existing mark, unseen", []uint32{h}, []uint32{h + 10}, h + 5, true, true},
	}

	// offer sends one packet by a route and reports whether it was
	// accepted; anything but acceptance or a replay refusal fails.
	routes := []struct {
		name  string
		offer func(t *testing.T, s *Store, at time.Duration, dev uint64, seq uint32) bool
	}{
		{"Ingest", func(t *testing.T, s *Store, at time.Duration, dev uint64, seq uint32) bool {
			err := s.Ingest(at, sealed(t, dev, seq, 1))
			if err != nil && !errors.Is(err, telemetry.ErrReplay) {
				t.Fatalf("Ingest seq %d: %v", seq, err)
			}
			return err == nil
		}},
		{"IngestBatch", func(t *testing.T, s *Store, at time.Duration, dev uint64, seq uint32) bool {
			res, err := s.IngestBatch(at, frameOf(t, sealed(t, dev, seq, 1)))
			if err != nil || res.Accepted+res.Duplicates != 1 {
				t.Fatalf("IngestBatch seq %d: %+v, %v", seq, res, err)
			}
			return res.Accepted == 1
		}},
	}

	const early, late, probeAt = time.Minute, 3 * 24 * time.Hour, 4 * 24 * time.Hour
	for _, c := range cases {
		for _, r := range routes {
			// feed offers the setup by route r: the folded seqs early, a
			// second device's reading that moves the data clock three days
			// on (so a checkpoint folds day 0), and the raw seqs late.
			feed := func(t *testing.T, s *Store) {
				for i, seq := range c.folded {
					if !r.offer(t, s, early+time.Duration(i)*time.Minute, dev, seq) {
						t.Fatalf("setup seq %d refused", seq)
					}
				}
				r.offer(t, s, late, dev+1, 1)
				for i, seq := range c.raw {
					if !r.offer(t, s, late+time.Duration(i)*time.Minute, dev, seq) {
						t.Fatalf("setup seq %d refused", seq)
					}
				}
			}
			states := []struct {
				name  string
				build func(t *testing.T) *Store
				want  bool
			}{
				{"live", func(t *testing.T) *Store {
					s := NewStore(StaticKeys(master))
					feed(t, s)
					return s
				}, c.fresh},
				{"ReplayWAL", func(t *testing.T) *Store {
					rig := newRig(t)
					s := rig.open()
					feed(t, s)
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
					s = rig.open()
					if _, err := s.ReplayWAL(); err != nil {
						t.Fatal(err)
					}
					return s
				}, c.fresh},
				{"LoadFile", func(t *testing.T) *Store {
					rig := newRig(t)
					s := rig.open()
					feed(t, s)
					if err := s.Checkpoint(rig.snap); err != nil {
						t.Fatal(err)
					}
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
					s = rig.open()
					if err := s.LoadFile(rig.snap); err != nil {
						t.Fatal(err)
					}
					// The folded seqs reach the guard only through Seed.
					id := lpwan.EUIFromUint64(dev)
					if len(c.folded) > 0 && s.Rollups().MaxSeq(id) != c.folded[len(c.folded)-1] {
						t.Fatalf("MaxSeq = %d after the fold, want %d", s.Rollups().MaxSeq(id), c.folded[len(c.folded)-1])
					}
					if got := len(s.History(id)); got != len(c.raw) {
						t.Fatalf("%d raw readings restored, want %d", got, len(c.raw))
					}
					return s
				}, c.restored},
			}
			for _, st := range states {
				t.Run(c.name+"/"+st.name+"/"+r.name, func(t *testing.T) {
					s := st.build(t)
					defer s.Close()
					if got := r.offer(t, s, probeAt, dev, c.probe); got != st.want {
						t.Errorf("seq %d accepted = %v, want %v", c.probe, got, st.want)
					}
				})
			}
		}
	}
}
