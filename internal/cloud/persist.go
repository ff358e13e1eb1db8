package cloud

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"centuryscale/internal/lpwan"
	"centuryscale/internal/obs"
	"centuryscale/internal/rollup"
	"centuryscale/internal/tsdb"
)

// Persistence: a data endpoint that must outlive hardware, hosting
// migrations, and the operators themselves (§4.4-4.5: "we will have to
// establish and maintain a reliable endpoint for data collection as well
// as potential data retention and resiliency") needs its state to be a
// plain, portable artifact. The snapshot format is versioned JSON —
// deliberately boring, so that whoever inherits the experiment in 2060
// can read it with whatever tools exist then.
//
// The snapshot is the export (WriteSnapshot) and the reader of what older
// builds left at the -snapshot path; it is not the checkpoint. SaveFile
// writes a delta (DESIGN.md S41): a small JSON manifest at the path and,
// in <path>.d/, binary segments (segment.go) — sealed rollup buckets
// appended once, and the raw window. The WAL is the crash-safety path
// covering the readings accepted since the last checkpoint; Checkpoint
// commits a manifest and then truncates the WAL segments it covers.

// snapshotVersion identifies the JSON format. Version 2 added the
// optional rollups section; version-1 files (no rollups) still load.
// manifestVersion marks the file at the same path as a manifest instead.
const (
	snapshotVersion    = 2
	minSnapshotVersion = 1
	manifestVersion    = 3
)

type snapshotReading struct {
	AtNanos int64   `json:"at"`
	Seq     uint32  `json:"seq"`
	Sensor  uint8   `json:"sensor"`
	Value   float32 `json:"value"`
	Uptime  uint32  `json:"uptime"`
}

// snapshotBucket is one rollup bucket in wire form. The float fields
// are serialized as IEEE-754 bit patterns: the buckets are required to
// be byte-identical across seed-identical runs and across
// crash-replay-refold cycles, and integer bits make that property
// independent of any encoder's float formatting.
type snapshotBucket struct {
	StartNanos  int64  `json:"start"`
	Count       uint64 `json:"count"`
	SumBits     uint64 `json:"sum_bits"`
	MinBits     uint32 `json:"min_bits"`
	MaxBits     uint32 `json:"max_bits"`
	FirstNanos  int64  `json:"first"`
	LastNanos   int64  `json:"last"`
	MaxGapNanos int64  `json:"max_gap"`
	MaxSeq      uint32 `json:"max_seq"`
}

// snapshotRollups carries the rollup engine's full state: tier
// geometry, both watermarks, and every bucket. Geometry rides along so
// a restore into a differently-configured engine fails loudly instead
// of mis-bucketing (summarized data cannot be re-cut).
type snapshotRollups struct {
	HourlyNanos      int64                       `json:"hourly"`
	DailyNanos       int64                       `json:"daily"`
	FoldedNanos      int64                       `json:"folded_before"`
	DailyFoldedNanos int64                       `json:"daily_folded_before"`
	Hourly           map[string][]snapshotBucket `json:"hourly_buckets"`
	Daily            map[string][]snapshotBucket `json:"daily_buckets"`
}

type snapshotFile struct {
	Version  int                          `json:"version"`
	Stats    IngestStats                  `json:"stats"`
	Readings map[string][]snapshotReading `json:"readings"`
	Weeks    []int64                      `json:"weeks"`
	Lapses   [][2]int64                   `json:"lapses"`
	Rollups  *snapshotRollups             `json:"rollups,omitempty"`
}

// devSeries is one device's raw points in arrival order.
type devSeries struct {
	dev lpwan.EUI64
	pts []tsdb.Point
}

// cut copies the store's state for persisting: the snapshot's header, the
// raw series shard by shard, and the rollup buckets at or above the given
// watermarks (zero for all; nil with rollups off). Stats.Accepted is exact
// for the series beside it even with ingest running — a shard's series and
// admission count are read under its guard lock, which admission and
// memtable insert share — so a reboot that loads them and replays the WAL
// counts every acknowledged packet once. foldMu keeps a fold from moving
// points between the copies; nothing here does I/O.
func (s *Store) cut(hourlyFrom, dailyFrom time.Duration) (snapshotFile, []map[lpwan.EUI64][]tsdb.Point, *rollup.EngineState) {
	s.foldMu.Lock()
	defer s.foldMu.Unlock()
	s.mu.Lock()
	snap := snapshotFile{
		Version: snapshotVersion,
		Stats:   s.stats.snapshot(),
		Weeks:   make([]int64, 0, len(s.weeks)),
	}
	for wk := range s.weeks {
		snap.Weeks = append(snap.Weeks, wk)
	}
	for _, l := range s.lapses {
		snap.Lapses = append(snap.Lapses, [2]int64{int64(l.from), int64(l.to)})
	}
	s.mu.Unlock()
	sort.Slice(snap.Weeks, func(i, j int) bool { return snap.Weeks[i] < snap.Weeks[j] })

	snap.Stats.Accepted = 0
	shards := make([]map[lpwan.EUI64][]tsdb.Point, len(s.guards))
	for i, gs := range s.guards {
		gs.mu.Lock()
		shards[i] = s.db.SnapshotShard(i)
		snap.Stats.Accepted += gs.accepted
		gs.mu.Unlock()
	}
	if r := s.rollups.Load(); r != nil {
		tiers := r.ExportSince(hourlyFrom, dailyFrom)
		return snap, shards, &tiers
	}
	return snap, shards, nil
}

// WriteSnapshot serialises the store's full state as the portable JSON
// export. Ingest is never blocked for the duration: the state is copied
// in short sections (cut) and the (dominant) JSON encoding runs with no
// lock held at all. The output is byte-deterministic for a given state:
// map keys are sorted by the encoder, and the week ledger by cut.
func (s *Store) WriteSnapshot(w io.Writer) error {
	snap, shards, tiers := s.cut(0, 0)
	snap.Readings = make(map[string][]snapshotReading)
	for _, shard := range shards {
		for dev, pts := range shard {
			out := make([]snapshotReading, len(pts))
			for j, pt := range pts {
				out[j] = snapshotReading{
					AtNanos: int64(pt.At),
					Seq:     pt.Seq,
					Sensor:  pt.Sensor,
					Value:   pt.Value,
					Uptime:  pt.Uptime,
				}
			}
			// Merge, don't assign: a device's series normally lives in
			// exactly one shard, but if points ever straddle two (a bug,
			// or a replay from a stale shard layout) the checkpoint must
			// still capture all of them — WAL truncation after the
			// checkpoint makes any omission permanent.
			k := dev.String()
			snap.Readings[k] = append(snap.Readings[k], out...)
		}
	}

	if tiers != nil {
		snap.Rollups = rollupsToSnapshot(*tiers)
	}

	enc := json.NewEncoder(w)
	if err := enc.Encode(snap); err != nil {
		return fmt.Errorf("cloud: snapshot encode: %w", err)
	}
	return nil
}

func bucketsToSnapshot(bs []rollup.Bucket) []snapshotBucket {
	out := make([]snapshotBucket, len(bs))
	for i, b := range bs {
		out[i] = snapshotBucket{
			StartNanos:  int64(b.Start),
			Count:       b.Count,
			SumBits:     math.Float64bits(b.Sum),
			MinBits:     math.Float32bits(b.Min),
			MaxBits:     math.Float32bits(b.Max),
			FirstNanos:  int64(b.First),
			LastNanos:   int64(b.Last),
			MaxGapNanos: int64(b.MaxGap),
			MaxSeq:      b.MaxSeq,
		}
	}
	return out
}

func bucketsFromSnapshot(sbs []snapshotBucket) []rollup.Bucket {
	out := make([]rollup.Bucket, len(sbs))
	for i, sb := range sbs {
		out[i] = rollup.Bucket{
			Start:  time.Duration(sb.StartNanos),
			Count:  sb.Count,
			Sum:    math.Float64frombits(sb.SumBits),
			Min:    math.Float32frombits(sb.MinBits),
			Max:    math.Float32frombits(sb.MaxBits),
			First:  time.Duration(sb.FirstNanos),
			Last:   time.Duration(sb.LastNanos),
			MaxGap: time.Duration(sb.MaxGapNanos),
			MaxSeq: sb.MaxSeq,
		}
	}
	return out
}

func rollupsToSnapshot(st rollup.EngineState) *snapshotRollups {
	out := &snapshotRollups{
		HourlyNanos:      int64(st.Config.Hourly),
		DailyNanos:       int64(st.Config.Daily),
		FoldedNanos:      int64(st.FoldedBefore),
		DailyFoldedNanos: int64(st.DailyFoldedBefore),
		Hourly:           make(map[string][]snapshotBucket, len(st.Devices)),
		Daily:            make(map[string][]snapshotBucket, len(st.Devices)),
	}
	for _, ds := range st.Devices {
		k := ds.Device.String()
		if len(ds.Hourly) > 0 {
			out.Hourly[k] = bucketsToSnapshot(ds.Hourly)
		}
		if len(ds.Daily) > 0 {
			out.Daily[k] = bucketsToSnapshot(ds.Daily)
		}
	}
	return out
}

func rollupsFromSnapshot(sr *snapshotRollups) (*rollup.EngineState, error) {
	st := &rollup.EngineState{
		Config:            rollup.Config{Hourly: time.Duration(sr.HourlyNanos), Daily: time.Duration(sr.DailyNanos)},
		FoldedBefore:      time.Duration(sr.FoldedNanos),
		DailyFoldedBefore: time.Duration(sr.DailyFoldedNanos),
	}
	devs := make(map[string]bool, len(sr.Hourly))
	for k := range sr.Hourly {
		devs[k] = true
	}
	for k := range sr.Daily {
		devs[k] = true
	}
	keys := make([]string, 0, len(devs))
	for k := range devs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		dev, err := lpwan.ParseEUI64(k)
		if err != nil {
			return nil, fmt.Errorf("cloud: snapshot rollup device %q: %w", k, err)
		}
		st.Devices = append(st.Devices, rollup.DeviceState{
			Device: dev,
			Hourly: bucketsFromSnapshot(sr.Hourly[k]),
			Daily:  bucketsFromSnapshot(sr.Daily[k]),
		})
	}
	return st, nil
}

// restoreEngine builds the rollup engine a load installs, before anything
// is swapped: persisted tiers loaded into a store that has rollups
// disabled would silently drop summarized history, and at another
// geometry be mis-bucketed.
func (s *Store) restoreEngine(tiers *rollup.EngineState) (*rollup.Engine, error) {
	cur := s.rollups.Load()
	switch {
	case tiers != nil && cur == nil:
		return nil, fmt.Errorf("cloud: snapshot carries rollup buckets but rollups are disabled on this store (enable with the same tier geometry, or the sealed history is lost)")
	case tiers != nil:
		return rollup.Restore(cur.Config(), *tiers)
	case cur != nil:
		// Pre-rollup state into a rollup-enabled store: start the tiers
		// empty at the configured geometry.
		return rollup.New(cur.Config())
	}
	return nil, nil
}

// ReadSnapshot replaces the store's state with a JSON snapshot's. The
// replay guard is rebuilt from the restored readings so sequence
// protection survives the restart.
func (s *Store) ReadSnapshot(r io.Reader) error {
	var snap snapshotFile
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("cloud: snapshot decode: %w", err)
	}
	if snap.Version < minSnapshotVersion || snap.Version > snapshotVersion {
		return fmt.Errorf("cloud: snapshot version %d, this build reads %d-%d", snap.Version, minSnapshotVersion, snapshotVersion)
	}
	var tiers *rollup.EngineState
	if snap.Rollups != nil {
		var err error
		if tiers, err = rollupsFromSnapshot(snap.Rollups); err != nil {
			return err
		}
	}
	restoredRollups, err := s.restoreEngine(tiers)
	if err != nil {
		return err
	}
	series := make([]devSeries, 0, len(snap.Readings))
	for devStr, rs := range snap.Readings {
		dev, err := lpwan.ParseEUI64(devStr)
		if err != nil {
			return fmt.Errorf("cloud: snapshot device %q: %w", devStr, err)
		}
		pts := make([]tsdb.Point, len(rs))
		for i, sr := range rs {
			pts[i] = tsdb.Point{
				Device: dev,
				At:     time.Duration(sr.AtNanos),
				Seq:    sr.Seq,
				Sensor: sr.Sensor,
				Value:  sr.Value,
				Uptime: sr.Uptime,
			}
		}
		series = append(series, devSeries{dev, pts})
	}
	s.install(snap, series, restoredRollups)
	return nil
}

// install swaps loaded state in; nothing before it may have touched the
// store, so a load that fails leaves it as it was. snap carries the
// stats, weeks and lapses (a manifest's, or a JSON snapshot's own).
func (s *Store) install(snap snapshotFile, series []devSeries, restoredRollups *rollup.Engine) {
	weeks := make(map[int64]bool, len(snap.Weeks))
	for _, w := range snap.Weeks {
		weeks[w] = true
	}
	var lapses []window
	for _, l := range snap.Lapses {
		lapses = append(lapses, window{from: time.Duration(l[0]), to: time.Duration(l[1])})
	}

	// Swap everything in: fresh guards rebuilt from the restored
	// readings (duplicates within the snapshot were already filtered at
	// ingest), fresh engine memtables loaded without WAL writes — the
	// snapshot itself is the durable copy of these readings.
	guards := freshGuards(s.db.Shards())
	guards[0].accepted = snap.Stats.Accepted
	s.db.Reset()
	for _, ds := range series {
		g := guards[tsdb.ShardIndex(ds.dev, len(guards))]
		for _, pt := range ds.pts {
			s.db.Load(pt)
			s.observeArrival(pt.At)
			g.guard.Record(packetOf(pt))
		}
	}
	if restoredRollups != nil {
		// The watermark is a lower bound on the data clock that produced
		// it; restoring it keeps HighWater monotone even when every raw
		// point was folded away.
		s.observeArrival(restoredRollups.FoldedBefore())
		// Seed replay protection for devices whose raw points were
		// folded away: only the buckets' max sequence number survives,
		// and without it a replayed pre-fold packet would re-enter.
		for _, dev := range restoredRollups.Devices() {
			if seq := restoredRollups.MaxSeq(dev); seq > 0 {
				guards[tsdb.ShardIndex(dev, len(guards))].guard.Seed(dev, seq)
			}
		}
		s.rollups.Store(restoredRollups)
	}

	s.stats.restore(snap.Stats)
	s.mu.Lock()
	s.weeks = weeks
	s.lapses = lapses
	s.mu.Unlock()
	for i, g := range guards {
		s.guards[i].mu.Lock()
		s.guards[i].guard, s.guards[i].accepted = g.guard, g.accepted
		s.guards[i].mu.Unlock()
	}
}

// manifest is the checkpoint's commit record, the JSON file at the
// -snapshot path: the snapshot's header fields under version 3, the tier
// geometry and fold watermarks (absent with rollups off), and the data
// files under <path>.d/, each valid to a recorded length and CRC-32C.
// Bytes past a length and files it does not name do not exist.
type manifest struct {
	Version int          `json:"version"`
	Stats   IngestStats  `json:"stats"`
	Weeks   []int64      `json:"weeks"`
	Lapses  [][2]int64   `json:"lapses"`
	Rollups *rollupMarks `json:"rollups,omitempty"`
	Sealed  []dataFile   `json:"sealed"`
	Tail    dataFile     `json:"tail"`
}

type rollupMarks struct {
	HourlyNanos      int64 `json:"hourly"`
	DailyNanos       int64 `json:"daily"`
	FoldedNanos      int64 `json:"folded_before"`
	DailyFoldedNanos int64 `json:"daily_folded_before"`
}

type dataFile struct {
	Name  string `json:"name"`
	Bytes int64  `json:"bytes"`
	CRC   uint32 `json:"crc32c"`
}

// archive is what the store knows to be at a path because it loaded or
// committed it there: the manifest's files, and the watermarks below
// which every bucket is already in a sealed segment. The zero value — no
// path — makes the next SaveFile a full base. next numbers new data files
// above everything found in the directory when the path was adopted; a
// failed save leaves it alone, so the retry reuses (and first truncates)
// the same names and failures do not pile files up.
type archive struct {
	path          string
	sealed        []dataFile
	tail          dataFile
	hourly, daily time.Duration
	next          uint64
}

// LoadInfo describes the last LoadFile for the boot log: the version
// found (0 nothing, 1-2 a JSON snapshot, 3 a manifest) and, for a
// manifest, what was read and how long checking the sealed segments,
// reading the tail, and loading it into memtables and guards each took.
type LoadInfo struct {
	Version, Segments, Buckets, TailPoints int
	SealedTime, TailTime, InstallTime      time.Duration
}

// LastLoad reports what the last LoadFile found.
func (s *Store) LastLoad() LoadInfo { return s.lastLoad }

// tempPath is where SaveFile stages the manifest: beside it, so the
// rename never crosses a filesystem, and under a fixed name, so a crashed
// save leaves one stale file, not a trail.
func tempPath(path string) string {
	return filepath.Join(filepath.Dir(path), "."+filepath.Base(path)+".tmp")
}

// SaveFile makes the store's state durable at path as a delta checkpoint
// (DESIGN.md S41, K1-K3): sealed buckets not yet in a segment are appended
// to <path>.d/sealed-*.seg, the raw window goes to a new tail file, and
// the manifest naming both replaces the old one by rename — the one
// commit point; until it, the previous manifest and every byte it names
// are intact. To a path this store neither loaded nor last saved it
// writes a full base.
func (s *Store) SaveFile(path string) error {
	if !s.saving.CompareAndSwap(false, true) {
		return errors.New("cloud: a checkpoint is already being written")
	}
	defer s.saving.Store(false)
	dir := path + ".d"
	if s.arch.path != path {
		s.arch = archive{path: path, next: maxDataFile(dir) + 1}
	}
	err := s.save(path, dir, s.ckptObs.Load())
	if err == nil {
		s.sweep(dir)
	}
	return err
}

func (s *Store) save(path, dir string, o *checkpointObs) error {
	a := s.arch
	lap := o.now()
	head, shards, tiers := s.cut(a.hourly, a.daily)
	m := manifest{Version: manifestVersion, Stats: head.Stats, Weeks: head.Weeks, Lapses: head.Lapses}
	if err := s.fs.Mkdir(dir); err != nil {
		return fmt.Errorf("cloud: checkpoint dir: %w", err)
	}
	if tiers != nil {
		if err := s.appendSealed(dir, &a, tiers); err != nil {
			return err
		}
		a.hourly, a.daily = tiers.FoldedBefore, tiers.DailyFoldedBefore
		m.Rollups = &rollupMarks{int64(tiers.Config.Hourly), int64(tiers.Config.Daily), int64(a.hourly), int64(a.daily)}
	}
	lap = o.lap(phaseSealed, lap)

	a.tail = dataFile{Name: dataName(tailPrefix, a.next)}
	a.next++
	var series []devSeries // sorted by device: the tail's bytes are a function of the state
	points := 0
	for _, shard := range shards {
		for dev, pts := range shard {
			series = append(series, devSeries{dev, pts})
			points += len(pts)
		}
	}
	sort.Slice(series, func(i, j int) bool { return series[i].dev.Uint64() < series[j].dev.Uint64() })
	records := make([]byte, 0, points*tsdb.RecordSize)
	for _, ds := range series {
		for _, pt := range ds.pts {
			records = tsdb.AppendRecord(records, pt)
		}
	}
	if err := s.appendFile(dir, &a.tail, records); err != nil {
		return err
	}
	if err := s.fs.SyncDir(dir); err != nil {
		return fmt.Errorf("cloud: checkpoint dir sync: %w", err)
	}
	lap = o.lap(phaseTail, lap)

	m.Sealed, m.Tail = a.sealed, a.tail
	body, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("cloud: manifest encode: %w", err)
	}
	tmp := tempPath(path)
	if err := s.appendFile(filepath.Dir(tmp), &dataFile{Name: filepath.Base(tmp)}, append(body, '\n')); err != nil {
		return err
	}
	if err := s.fs.Rename(tmp, path); err != nil {
		return fmt.Errorf("cloud: manifest rename: %w", err)
	}
	// Committed as far as any reader of the directory can tell: from here
	// the new manifest's files are the ones that must stay untouched,
	// whether or not the fsync below reports the rename durable.
	s.arch = a
	s.ckptSegments.Store(int64(len(a.sealed)))
	if err := s.fs.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("cloud: manifest dir sync: %w", err)
	}
	o.lap(phaseCommit, lap)
	return nil
}

// Checkpoint is CheckpointAt on the store's own data clock.
func (s *Store) Checkpoint(path string) error {
	return s.CheckpointAt(path, s.HighWater())
}

// LoadFile restores the store from what is at path: a manifest and the
// files it names, or a JSON snapshot of any version (which the next
// checkpoint replaces with a manifest). A missing file is not an error:
// the endpoint simply starts fresh (first boot). A named file that is
// short or fails a CRC refuses the load: once the WAL behind a
// checkpoint is truncated, that history has no other copy.
func (s *Store) LoadFile(path string) error {
	// What a crashed save staged; older builds left .snapshot-<random>.
	stale, _ := filepath.Glob(filepath.Join(filepath.Dir(path), ".snapshot-*")) // the pattern is well-formed
	for _, f := range append(stale, tempPath(path)) {
		if f != path {
			_ = os.Remove(f) // best effort: a leftover is only clutter
		}
	}
	s.arch, s.lastLoad = archive{}, LoadInfo{}
	clock := obs.ProcessClock()
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("cloud: snapshot open: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("cloud: snapshot decode: %w", err)
	}
	if m.Version > manifestVersion {
		return fmt.Errorf("cloud: %s is format version %d, this build reads %d-%d", path, m.Version, minSnapshotVersion, manifestVersion)
	}
	if m.Version != manifestVersion {
		err := s.ReadSnapshot(bytes.NewReader(data))
		s.lastLoad = LoadInfo{Version: m.Version, InstallTime: clock()}
		return err
	}
	return s.loadArchive(path, m, clock)
}

// loadArchive restores from a manifest and the files it names.
func (s *Store) loadArchive(path string, m manifest, clock obs.Clock) error {
	dir := path + ".d"
	a := archive{path: path, sealed: m.Sealed, tail: m.Tail}
	info := LoadInfo{Version: m.Version, Segments: len(m.Sealed)}
	var tiers *rollup.EngineState
	if m.Rollups != nil {
		a.hourly, a.daily = time.Duration(m.Rollups.FoldedNanos), time.Duration(m.Rollups.DailyFoldedNanos)
		tiers = &rollup.EngineState{
			Config:       rollup.Config{Hourly: time.Duration(m.Rollups.HourlyNanos), Daily: time.Duration(m.Rollups.DailyNanos)},
			FoldedBefore: a.hourly, DailyFoldedBefore: a.daily,
		}
		byDev := make(map[lpwan.EUI64]*rollup.DeviceState)
		for _, f := range m.Sealed {
			err := readDataFile(dir, f, sealedPrefix, func(r io.Reader) error {
				return decodeSealed(r, func(dev lpwan.EUI64, tier byte, bs []rollup.Bucket) {
					ds := byDev[dev]
					if ds == nil {
						ds = &rollup.DeviceState{Device: dev}
						byDev[dev] = ds
					}
					if tier == tierHourly {
						ds.Hourly = append(ds.Hourly, bs...)
					} else {
						ds.Daily = append(ds.Daily, bs...)
					}
					info.Buckets += len(bs)
				})
			})
			if err != nil {
				return err
			}
		}
		for _, ds := range byDev {
			tiers.Devices = append(tiers.Devices, *ds)
		}
	} else if len(m.Sealed) > 0 {
		return fmt.Errorf("cloud: manifest names %d sealed segments but no rollup geometry", len(m.Sealed))
	}
	restoredRollups, err := s.restoreEngine(tiers)
	if err != nil {
		return err
	}
	info.SealedTime = clock()

	var series []devSeries
	err = readDataFile(dir, m.Tail, tailPrefix, func(r io.Reader) error {
		_, good, err := tsdb.DecodeRecords(r, func(pt tsdb.Point) {
			if n := len(series); n == 0 || series[n-1].dev != pt.Device {
				series = append(series, devSeries{dev: pt.Device})
			}
			ds := &series[len(series)-1]
			ds.pts = append(ds.pts, pt)
			info.TailPoints++
		})
		if err != nil {
			return fmt.Errorf("offset %d: %w", good, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	info.TailTime = clock() - info.SealedTime

	s.install(snapshotFile{Stats: m.Stats, Weeks: m.Weeks, Lapses: m.Lapses}, series, restoredRollups)
	a.next = maxDataFile(dir) + 1
	s.arch = a
	s.ckptSegments.Store(int64(len(a.sealed)))
	info.InstallTime = clock() - info.TailTime - info.SealedTime
	s.lastLoad = info
	return nil
}
