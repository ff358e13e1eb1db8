package cloud

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"centuryscale/internal/lpwan"
	"centuryscale/internal/query"
	"centuryscale/internal/rollup"
	"centuryscale/internal/sim"
)

// cutAnswer is every per-device answer the query layer gives about one
// device, plus the fleet ranking: what a fold must never change.
type cutAnswer struct {
	Windows []query.WindowAgg
	Uptime  float64
	Gap     time.Duration
	Top     []query.DeviceGap
}

func askCut(t *testing.T, s *Store, dev lpwan.EUI64, step, horizon time.Duration) cutAnswer {
	q := s.QueryEngine()
	it, err := q.Windows(dev, 0, horizon, step)
	if err != nil {
		t.Error(err)
		return cutAnswer{}
	}
	defer it.Close()
	var a cutAnswer
	for it.Next() {
		a.Windows = append(a.Windows, it.Window())
	}
	a.Uptime = q.WeeklyUptime(dev, horizon)
	a.Gap = q.LongestGap(dev, horizon)
	a.Top = q.TopGaps(len(s.Devices()), horizon)
	return a
}

// TestQueryInsideAFoldSeesItWhole holds one guard-shard lock so that
// FoldRollups stops at its barrier with the new watermark published and
// nothing drained yet. A query asked in that state must answer as if the
// fold had not begun or had landed, never from the new watermark and the
// old buckets (which drops the hours being folded from every answer).
func TestQueryInsideAFoldSeesItWhole(t *testing.T) {
	const retain = 24 * time.Hour
	horizon := 2 * sim.Week
	s := NewStore(StaticKeys(master))
	if err := s.EnableRollups(rollup.Config{}, retain); err != nil {
		t.Fatal(err)
	}
	// 0xA1 reports every 20 minutes for nine days, into the second week;
	// 0xA2 stops a day earlier.
	a1, a2 := lpwan.EUIFromUint64(0xA1), lpwan.EUIFromUint64(0xA2)
	for _, d := range []struct {
		dev  uint64
		days int
	}{{0xA1, 9}, {0xA2, 8}} {
		for i := 0; i < d.days*72; i++ {
			if err := s.Ingest(time.Duration(i)*20*time.Minute, sealed(t, d.dev, uint32(i+1), float32(i%17))); err != nil {
				t.Fatal(err)
			}
		}
	}
	last1, last2 := 9*sim.Day-20*time.Minute, 8*sim.Day-20*time.Minute
	want := func(got cutAnswer, when string) {
		t.Helper()
		if len(got.Windows) != 2 || got.Windows[0].Count != 504 || got.Windows[1].Count != 144 {
			t.Errorf("%s: 0xA1's weekly counts are %+v, want 504 then 144", when, got.Windows)
		}
		if got.Uptime != 1 {
			t.Errorf("%s: 0xA1's weekly uptime is %v, want 1", when, got.Uptime)
		}
		if got.Gap != horizon-last1 {
			t.Errorf("%s: 0xA1's longest gap is %v, want %v", when, got.Gap, horizon-last1)
		}
		top := []query.DeviceGap{{Device: a2, Gap: horizon - last2}, {Device: a1, Gap: horizon - last1}}
		if !reflect.DeepEqual(got.Top, top) {
			t.Errorf("%s: top gaps are %+v, want %+v", when, got.Top, top)
		}
	}
	before := askCut(t, s, a1, sim.Week, horizon)
	want(before, "before the fold")

	gs := s.guards[0]
	gs.mu.Lock()
	folded := make(chan int, 1)
	go func() { folded <- s.FoldRollups(s.HighWater()) }()
	wm := rollup.AlignDown(last1-retain, time.Hour)
	for deadline := time.Now().Add(10 * time.Second); s.Rollups().FoldedBefore() != wm; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			gs.mu.Unlock()
			t.Fatalf("the fold never published its watermark %v", wm)
		}
	}
	// The fold now waits at its barrier. A query that answers while it
	// waits saw the fold half done; one that waits gets the landed fold.
	answered := make(chan cutAnswer, 1)
	go func() { answered <- askCut(t, s, a1, sim.Week, horizon) }()
	var inside cutAnswer
	select {
	case inside = <-answered:
		gs.mu.Unlock()
	case <-time.After(100 * time.Millisecond):
		gs.mu.Unlock()
		inside = <-answered
	}
	if n := <-folded; n == 0 {
		t.Fatal("the fold summarized nothing")
	}
	want(inside, "asked inside the fold")
	after := askCut(t, s, a1, sim.Week, horizon)
	want(after, "after the fold")
	if !reflect.DeepEqual(after, before) {
		t.Errorf("the fold changed an answer:\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestFoldNeverChangesAnAnswer: readers query a fixed dataset while a
// loop folds it hour by hour, checkpointing each time, until nothing is
// left raw. Every answer, whenever it lands, equals the answer the store
// gave before any fold. Run it with -race.
func TestFoldNeverChangesAnAnswer(t *testing.T) {
	r := newRig(t)
	s := r.boot()
	defer func() { s.Close() }()
	feedDays(t, s, 0, 9)
	horizon := 2 * sim.Week
	devs := s.Devices()
	want := make([]cutAnswer, len(devs))
	for i, dev := range devs {
		want[i] = askCut(t, s, dev, sim.Day, horizon)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	asked := make([]int, 2)
	for k := range asked {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				j := i % len(devs)
				if got := askCut(t, s, devs[j], sim.Day, horizon); !reflect.DeepEqual(got, want[j]) {
					t.Errorf("device %v at watermark %v:\ngot  %+v\nwant %+v", devs[j], s.Rollups().FoldedBefore(), got, want[j])
					return
				}
				asked[k]++
			}
		}(k)
	}
	end := s.HighWater() + rigRetain + time.Hour
	for now := rigRetain + time.Hour; now <= end; now += time.Hour {
		if err := s.CheckpointAt(r.snap, now); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if rawCount(s) != 0 {
		t.Fatalf("%d readings are still raw: the loop did not fold everything", rawCount(s))
	}
	if asked[0] == 0 || asked[1] == 0 {
		t.Fatalf("readers answered %v queries: the folds ran unobserved", asked)
	}
	for i, dev := range devs {
		if got := askCut(t, s, dev, sim.Day, horizon); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("device %v, all folded: got %+v want %+v", dev, got, want[i])
		}
	}
	s.Close()
	s = r.boot()
	for i, dev := range devs {
		if got := askCut(t, s, dev, sim.Day, horizon); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("device %v, rebooted: got %+v want %+v", dev, got, want[i])
		}
	}
}
