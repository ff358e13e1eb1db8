package main

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"time"

	"centuryscale/internal/batch"
	"centuryscale/internal/cloud"
	"centuryscale/internal/lpwan"
	"centuryscale/internal/rng"
	"centuryscale/internal/rollup"
	"centuryscale/internal/telemetry"
	"centuryscale/internal/tsdb"
)

// The generator: everything the daemons are fed is derived here from the
// run's seed, sealed before any timed window opens, and handed over as
// bytes. The daemons never see the seed.

const (
	// fleetSize devices send frames; their popularity is Zipf(zipfAlpha)
	// over rank, so a 256-packet frame touches every storage shard while
	// a handful of hot devices still dominate.
	fleetSize = 4096
	zipfAlpha = 1.0
	// framePackets is the gateway batch size the frame workloads use.
	framePackets = 256
	frameBytes   = batch.HeaderSize + framePackets*batch.PacketSize
	// connections is the number of gateways (HTTP connections) the
	// closed-loop workloads drive; the host has two cores.
	connections = 2

	fleetMaster   = "bench-fleet-master-secret"
	clusterSecret = "bench-cluster-secret"
)

// Device address spaces. The three populations never collide, and the
// low bits are sequential on purpose: that is how a manufacturer numbers
// devices, and tsdb.ShardIndex is what spreads them.
const (
	fleetBase uint64 = 0x02c5f1ee00000000
	agedBase  uint64 = 0x02c5a9ed00000000
	tailBase  uint64 = 0x02c57a1100000000
)

// fleetDevice maps a Zipf rank (0 = most popular) to its device.
func fleetDevice(rank int) lpwan.EUI64 { return lpwan.EUIFromUint64(fleetBase + uint64(rank) + 1) }

// connOf is the per-connection device partition: a device's packets
// always travel on one connection, so its sequence numbers arrive in
// order without any cross-connection coordination.
func connOf(rank int) int { return rank % connections }

// sealer signs packets with a cached keyed HMAC per device. It produces
// the same bytes as telemetry.Packet.Seal (a test pins that) without the
// per-packet key schedule, which is what makes sealing millions of
// packets affordable inside set-up.
type sealer struct {
	master []byte
	macs   map[lpwan.EUI64]hash.Hash
	sum    [sha256.Size]byte
}

func newSealer(master string) *sealer {
	return &sealer{master: []byte(master), macs: make(map[lpwan.EUI64]hash.Hash)}
}

var zeroPacket [telemetry.PacketSize]byte

// appendSealed appends p's 24 wire bytes to dst.
func (s *sealer) appendSealed(dst []byte, p telemetry.Packet) []byte {
	mac := s.macs[p.Device]
	if mac == nil {
		mac = hmac.New(sha256.New, telemetry.DeriveKey(s.master, p.Device))
		s.macs[p.Device] = mac
	}
	n := len(dst)
	dst = append(dst, zeroPacket[:]...)
	w := dst[n:]
	copy(w[0:8], p.Device[:])
	binary.BigEndian.PutUint32(w[8:12], p.Seq)
	w[12] = uint8(p.Sensor)
	binary.BigEndian.PutUint32(w[13:17], math.Float32bits(p.Value))
	binary.BigEndian.PutUint32(w[17:21], p.UptimeSeconds)
	mac.Reset()
	mac.Write(w[:21])
	copy(w[21:24], mac.Sum(s.sum[:0])[:3])
	return dst
}

// quarter converts a value drawn in quarter units to the float32 a
// packet carries. Multiples of 0.25 below 100 are exact in float32 and
// their sums are exact in float64 in any order, so reference answers
// can be compared for equality however the server chose to group them.
func quarter(q uint16) float32 { return float32(q) / 4 }

const quarterRange = 400

// framePool is one connection's pre-sealed frames, back to back.
type framePool struct {
	conn int
	n    int
	buf  []byte
}

func (p *framePool) frame(i int) []byte { return p.buf[i*frameBytes : (i+1)*frameBytes] }

// poolBuilder fills a framePool incrementally so set-up can time it in
// slices. Each connection draws ranks from the fleet's Zipf law
// restricted to its own partition, from its own split of the seed.
type poolBuilder struct {
	pool    *framePool
	zipf    *rng.Zipf
	values  *rng.Source
	seal    *sealer
	seq     []uint32
	scratch []byte
	packets [][]byte
}

func newPoolBuilder(seed uint64, conn, capacityFrames int) *poolBuilder {
	src := rng.New(seed).Split(fmt.Sprintf("frames-conn%d", conn))
	return &poolBuilder{
		pool:    &framePool{conn: conn, buf: make([]byte, 0, capacityFrames*frameBytes)},
		zipf:    rng.NewZipf(src.Split("rank"), fleetSize, zipfAlpha),
		values:  src.Split("value"),
		seal:    newSealer(fleetMaster),
		seq:     make([]uint32, fleetSize),
		scratch: make([]byte, 0, framePackets*batch.PacketSize),
		packets: make([][]byte, framePackets),
	}
}

// build appends n frames to the pool.
func (b *poolBuilder) build(n int) error {
	for f := 0; f < n; f++ {
		b.scratch = b.scratch[:0]
		for i := 0; i < framePackets; i++ {
			rank := b.zipf.Draw()
			for connOf(rank) != b.pool.conn {
				rank = b.zipf.Draw()
			}
			b.seq[rank]++
			b.scratch = b.seal.appendSealed(b.scratch, telemetry.Packet{
				Device:        fleetDevice(rank),
				Seq:           b.seq[rank],
				Sensor:        telemetry.SensorType(rank % 8),
				Value:         quarter(uint16(b.values.Intn(quarterRange))),
				UptimeSeconds: b.seq[rank] * 3600,
			})
		}
		for i := range b.packets {
			b.packets[i] = b.scratch[i*batch.PacketSize : (i+1)*batch.PacketSize]
		}
		var err error
		b.pool.buf, err = batch.AppendFrame(b.pool.buf, b.packets...)
		if err != nil {
			return err
		}
		b.pool.n++
	}
	return nil
}

// reading is what the generator knows about one packet it made: enough
// to check a /history answer field by field.
type reading struct {
	Seq   uint32
	Value float32
}

// readingsOf scans the first n frames of the pool and returns, per wanted
// device, the readings those frames carry, in send order.
func (p *framePool) readingsOf(n int, want map[lpwan.EUI64]bool) map[lpwan.EUI64][]reading {
	out := make(map[lpwan.EUI64][]reading, len(want))
	var dev lpwan.EUI64
	for f := 0; f < n; f++ {
		payload := p.frame(f)[batch.HeaderSize:]
		for i := 0; i < framePackets; i++ {
			wire := batch.Packet(payload, i)
			copy(dev[:], wire[:8])
			if !want[dev] {
				continue
			}
			pkt, err := telemetry.Parse(wire)
			if err != nil {
				panic("bench: generated packet does not parse: " + err.Error())
			}
			out[dev] = append(out[dev], reading{Seq: pkt.Seq, Value: pkt.Value})
		}
	}
	return out
}

// sampleRanks is the fixed, evenly spaced set of fleet ranks whose full
// histories are read back and checked. It does not depend on the seed:
// a device's share of the traffic falls as 1/rank, so a seed-chosen
// sample would make the cost of the read-back phase a lottery.
func sampleRanks(n int) []int {
	out := make([]int, n)
	step := fleetSize / n
	for i := range out {
		out[i] = (i+1)*step - 1
	}
	return out
}

// The aged deployment: a few devices that have reported hourly for
// years (folded into rollup tiers, with a 30-day raw tail), plus a large
// recent fleet whose readings sit in the WAL beyond the last checkpoint.

const (
	agedDevices = 8
	// agedYears of hourly history per aged device. The issue asked for
	// ten (a 135 MB snapshot, 3 s per checkpoint); at the window length
	// the driver's time budget allows, four keeps three checkpoints
	// inside every window without saturating a core.
	agedYears     = 4
	hoursPerYear  = 8766 // 365.25 days
	agedHours     = agedYears * hoursPerYear
	agedRetainRaw = 720 * time.Hour
	// The WAL tail: tailRecords readings from tailDevices recent devices
	// spread over the raw window, accepted after the last checkpoint.
	tailDevices = 2048
	tailRecords = 100_000
	tailFrames  = (tailRecords + framePackets - 1) / framePackets
	tailSpan    = 696 * time.Hour // inside the 720 h raw window
)

func agedDevice(i int) lpwan.EUI64 { return lpwan.EUIFromUint64(agedBase + uint64(i) + 1) }
func tailDevice(i int) lpwan.EUI64 { return lpwan.EUIFromUint64(tailBase + uint64(i) + 1) }

// agedAt is the virtual arrival time of an aged device's hour-h reading
// (h counts from 0). Every aged device reports on the hour.
func agedAt(h int) time.Duration { return time.Duration(h+1) * time.Hour }

// agedArchive is the generator's own record of what it put into the
// archive: the values reference answers are computed from, and the
// totals recovery is checked against.
type agedArchive struct {
	hours int
	// quarters[d][h] is device d's hour-h value in quarter units.
	quarters [agedDevices][]uint16
	// points is every reading in the archive and the WAL tail.
	points int
	// snapshot and dataDir are where the archive lives on disk.
	snapshot string
	dataDir  string
	// timings of the build's stages, for set-up accounting.
	ingestSlices []float64 // seconds per slice of archive ingest
	checkpointS  float64
	tailS        float64
}

// agedValues draws the archive's values for the seed. Hour-major order:
// hour 0 of every device, then hour 1, matching the order they are
// ingested in.
func agedValues(seed uint64, hours int) (q [agedDevices][]uint16) {
	src := rng.New(seed).Split("aged-values")
	for d := range q {
		q[d] = make([]uint16, hours)
	}
	for h := 0; h < hours; h++ {
		for d := 0; d < agedDevices; d++ {
			q[d][h] = uint16(src.Intn(quarterRange))
		}
	}
	return q
}

// openAgedStore opens the store an aged deployment runs on. sync is the
// only knob: set-up builds with SyncNever (it is not the thing being
// measured), the traced run opens its own with the daemon's policy.
func openAgedStore(dataDir string, sync tsdb.SyncPolicy) (*cloud.Store, error) {
	db, err := tsdb.Open(tsdb.Options{Dir: dataDir, Shards: 16, Sync: sync})
	if err != nil {
		return nil, err
	}
	store := cloud.NewStoreWithDB(cloud.StaticKeys([]byte(fleetMaster)), db)
	if err := store.EnableRollups(rollup.Config{}, agedRetainRaw); err != nil {
		store.Close()
		return nil, err
	}
	return store, nil
}

// agedSlices is how many timed slices the archive ingest is cut into.
const agedSlices = 8

// buildAged writes an aged deployment under dir: snapshot.json holding
// the folded archive, tsdb/ holding the WAL tail. It goes through
// cloud.Store's public calls only, so the files are exactly what an
// endpointd that had run for agedYears would have left.
func buildAged(dir string, seed uint64, hours int) (*agedArchive, error) {
	a := &agedArchive{
		hours:    hours,
		quarters: agedValues(seed, hours),
		snapshot: filepath.Join(dir, "snapshot.json"),
		dataDir:  filepath.Join(dir, "tsdb"),
	}
	if err := os.MkdirAll(a.dataDir, 0o755); err != nil {
		return nil, err
	}
	store, err := openAgedStore(a.dataDir, tsdb.SyncNever)
	if err != nil {
		return nil, err
	}
	seal := newSealer(fleetMaster)
	var scratch, frame []byte
	packets := make([][]byte, 0, framePackets)

	ingest := func(at time.Duration, want int) error {
		var err error
		frame, err = batch.AppendFrame(frame[:0], packets...)
		if err != nil {
			return err
		}
		res, err := store.IngestBatch(at, frame)
		if err != nil {
			return err
		}
		if res.Accepted != want {
			return fmt.Errorf("bench: archive frame at %v: accepted %d of %d (%+v)", at, res.Accepted, want, res)
		}
		a.points += want
		return nil
	}

	sliceStart := time.Now()
	for h := 0; h < hours; h++ {
		scratch, packets = scratch[:0], packets[:0]
		for d := 0; d < agedDevices; d++ {
			scratch = seal.appendSealed(scratch, telemetry.Packet{
				Device:        agedDevice(d),
				Seq:           uint32(h + 1),
				Sensor:        telemetry.SensorStrain,
				Value:         quarter(a.quarters[d][h]),
				UptimeSeconds: uint32(h) * 3600,
			})
		}
		for d := 0; d < agedDevices; d++ {
			packets = append(packets, scratch[d*batch.PacketSize:(d+1)*batch.PacketSize])
		}
		if err := ingest(agedAt(h), agedDevices); err != nil {
			store.Close()
			return nil, err
		}
		if (h+1)%(hours/agedSlices) == 0 && len(a.ingestSlices) < agedSlices {
			now := time.Now()
			a.ingestSlices = append(a.ingestSlices, now.Sub(sliceStart).Seconds())
			sliceStart = now
		}
	}

	start := time.Now()
	if err := store.CheckpointAt(a.snapshot, store.HighWater()); err != nil {
		store.Close()
		return nil, err
	}
	a.checkpointS = time.Since(start).Seconds()

	// The WAL tail: recent devices, spread over the raw window, accepted
	// after the checkpoint and therefore only in the log.
	start = time.Now()
	values := rng.New(seed).Split("tail-values")
	end := agedAt(hours - 1)
	tailSeq := make([]uint32, tailDevices)
	next := 0
	for f := 0; f < tailFrames; f++ {
		n := framePackets
		if left := tailRecords - f*framePackets; left < n {
			n = left
		}
		scratch, packets = scratch[:0], packets[:0]
		for i := 0; i < n; i++ {
			d := next % tailDevices
			next++
			tailSeq[d]++
			scratch = seal.appendSealed(scratch, telemetry.Packet{
				Device:        tailDevice(d),
				Seq:           tailSeq[d],
				Sensor:        telemetry.SensorTemperature,
				Value:         quarter(uint16(values.Intn(quarterRange))),
				UptimeSeconds: tailSeq[d] * 3600,
			})
		}
		for i := 0; i < n; i++ {
			packets = append(packets, scratch[i*batch.PacketSize:(i+1)*batch.PacketSize])
		}
		at := end - tailSpan + time.Duration(f)*(tailSpan/tailFrames)
		if err := ingest(at, n); err != nil {
			store.Close()
			return nil, err
		}
	}
	a.tailS = time.Since(start).Seconds()
	if err := store.Close(); err != nil {
		return nil, err
	}
	return a, nil
}

// weekly is one reference window: what /query must answer for a sealed
// week of one aged device.
type weekly struct {
	Count uint64
	Sum   float64
}

const week = 7 * 24 * time.Hour

// referenceWeeks computes device d's weekly windows over [0, upTo) from
// the generator's own values. Only whole weeks below upTo are returned.
func (a *agedArchive) referenceWeeks(d int, upTo time.Duration) []weekly {
	out := make([]weekly, int(upTo/week))
	for h := 0; h < a.hours; h++ {
		w := int(agedAt(h) / week)
		if w >= len(out) {
			break
		}
		out[w].Count++
		out[w].Sum += float64(quarter(a.quarters[d][h]))
	}
	return out
}

// Request schedules for the open loops.

type readKind uint8

const (
	readWindows readKind = iota // GET /query, weekly windows over the whole history
	readHistory                 // GET /history over the last 7 days
	readGaps                    // GET /query/gaps?k=5
)

func (k readKind) String() string {
	return [...]string{"query_windows", "history", "query_gaps"}[k]
}

// readRequest is one scheduled dashboard read.
type readRequest struct {
	Due    time.Duration // offset from the loop's start
	Kind   readKind
	Device int // index into the aged devices
}

// readSchedule lays out n reads evenly at rate per second: 80% weekly
// windows for a Zipf-chosen aged device, 10% recent history, 10% top
// gaps. Only the mix depends on the seed; the spacing is fixed, so two
// seeds load the server identically in time.
func readSchedule(seed uint64, n int, rate float64) []readRequest {
	src := rng.New(seed).Split("reads")
	zipf := rng.NewZipf(src.Split("device"), agedDevices, zipfAlpha)
	kinds := src.Split("kind")
	gap := time.Duration(float64(time.Second) / rate)
	out := make([]readRequest, n)
	for i := range out {
		r := readRequest{Due: time.Duration(i) * gap, Device: zipf.Draw()}
		switch u := kinds.Float64(); {
		case u < 0.8:
			r.Kind = readWindows
		case u < 0.9:
			r.Kind = readHistory
		default:
			r.Kind = readGaps
		}
		out[i] = r
	}
	return out
}

// writeRequest is one scheduled single-packet ingest on the aged
// deployment: a sealed packet and the virtual arrival it is stamped with.
type writeRequest struct {
	Due     time.Duration
	Device  int
	Hour    int // the reading's hour index, continuing the archive
	Wire    []byte
	Arrival time.Duration
}

// writeSchedule lays out n single packets evenly at rate per second,
// round-robin over the aged devices, each one virtual hour after that
// device's previous reading. Unstamped arrivals would fall below the
// fold watermark and be refused as stale, as cmd/queryload notes.
func writeSchedule(seed uint64, n int, rate float64, archiveHours int) []writeRequest {
	values := rng.New(seed).Split("writes")
	seal := newSealer(fleetMaster)
	gap := time.Duration(float64(time.Second) / rate)
	out := make([]writeRequest, n)
	buf := make([]byte, 0, n*batch.PacketSize)
	for i := range out {
		d := i % agedDevices
		h := archiveHours + i/agedDevices
		start := len(buf)
		buf = seal.appendSealed(buf, telemetry.Packet{
			Device:        agedDevice(d),
			Seq:           uint32(h + 1),
			Sensor:        telemetry.SensorStrain,
			Value:         quarter(uint16(values.Intn(quarterRange))),
			UptimeSeconds: uint32(h) * 3600,
		})
		out[i] = writeRequest{
			Due:     time.Duration(i) * gap,
			Device:  d,
			Hour:    h,
			Wire:    buf[start:len(buf):len(buf)],
			Arrival: agedAt(h),
		}
	}
	return out
}
