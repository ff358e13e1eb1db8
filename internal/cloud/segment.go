package cloud

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"centuryscale/internal/lpwan"
	"centuryscale/internal/rollup"
	"centuryscale/internal/varint"
)

// The checkpoint's data files; FORMAT.md gives every offset. A sealed
// segment is a run of frames, header integers big-endian:
//
//	0:4   payload length: 13 + the buckets' bytes
//	4:8   CRC-32C (Castagnoli) of the payload
//	8:16  device EUI-64           ┐
//	16    tier and encoding       │ payload
//	17:21 bucket count, 1..1024   │
//	21:   the buckets             ┘
//
// one frame per run of one device's buckets in one tier, so an offset
// index can later address a device without a format change. Each frame
// names its encoding in its tier code: 3 hourly and 4 daily are compact
// frames (appendCompactFrame), the only ones a checkpoint writes; 1 and 2
// are the fixed 60-byte buckets of manifest version 3, still read, since
// a segment written before the upgrade takes compact frames appended to
// it. The tail file is a sequence of device runs (tsdb.AppendDeviceRuns,
// record type 0x03), each device's raw points in memtable order; it is
// read by the WAL's decoder, so the 38-byte point records (0x01) of a
// version-3 or -4 tail still load (FORMAT.md).
const (
	segFrameHeader  = 21
	maxFrameBuckets = 1024

	tierHourlyFixed byte = 1
	tierDailyFixed  byte = 2
	tierHourly      byte = 3
	tierDaily       byte = 4

	fixedBucketSize = 60
	// maxCompactBucket bounds a compact bucket the decoder accepts: the
	// form byte, at most six varints of at most ten bytes, and the sum,
	// minimum and maximum.
	maxCompactBucket = 1 + 6*binary.MaxVarintLen64 + 16

	formFull   byte = 0
	formSingle byte = 1

	sealedPrefix = "sealed"
	tailPrefix   = "tail"

	// defaultSegmentBytes: a checkpoint starts a new sealed segment once
	// the newest has reached it.
	defaultSegmentBytes = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// dailyTier reports whether a frame's tier code is the daily tier, in
// either encoding.
func dailyTier(tier byte) bool { return tier == tierDaily || tier == tierDailyFixed }

// singleForm reports whether b takes the compact single form: one reading,
// so its sum, minimum and maximum are one float32 value and its first and
// last arrival one instant.
func singleForm(b rollup.Bucket) bool {
	return b.Count == 1 && b.Last == b.First && b.MaxGap == 0 &&
		math.Float32bits(b.Min) == math.Float32bits(b.Max) &&
		math.Float64bits(b.Sum) == math.Float64bits(float64(b.Min))
}

// appendCompactFrame appends one compact frame holding bs, at most
// maxFrameBuckets buckets of the tier whose width is width. A bucket is
//
//	form        1 byte: 1 single, 0 full
//	start       in tier widths: zigzag varint for the frame's first
//	            bucket, then a uvarint step (≥ 1) from the previous one
//	first       uvarint of First − Start, ns
//	max seq     zigzag varint of MaxSeq − the previous bucket's (0 first)
//	single:     the value, float32 bits (4 bytes)
//	full:       uvarint Count, Sum float64 bits (8), Min and Max float32
//	            bits (4 + 4), uvarint Last − First, uvarint MaxGap
//
// with fixed-width fields big-endian. It refuses a bucket no fold makes —
// off the grid, out of order, arrivals before its start or out of order —
// rather than write what it cannot read back.
func appendCompactFrame(dst []byte, dev lpwan.EUI64, tier byte, width time.Duration, bs []rollup.Bucket) ([]byte, error) {
	at := len(dst)
	dst = binary.BigEndian.AppendUint64(dst, 0) // length and CRC, filled in below
	dst = append(dst, dev[:]...)
	dst = append(dst, tier)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(bs)))
	var idx int64
	var seq uint32
	for i, b := range bs {
		next := int64(b.Start / width)
		if b.Start%width != 0 || (i > 0 && next <= idx) || b.First < b.Start || b.Last < b.First || b.MaxGap < 0 {
			return dst[:at], fmt.Errorf("cloud: device %v tier %d: bucket at %v is off the %v grid, out of order, or has arrivals out of order", dev, tier, b.Start, width)
		}
		form := formFull
		if singleForm(b) {
			form = formSingle
		}
		dst = append(dst, form)
		if i == 0 {
			dst = binary.AppendVarint(dst, next)
		} else {
			dst = binary.AppendUvarint(dst, uint64(next)-uint64(idx))
		}
		dst = binary.AppendUvarint(dst, uint64(b.First)-uint64(b.Start))
		dst = binary.AppendVarint(dst, int64(b.MaxSeq)-int64(seq))
		if form == formSingle {
			dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(b.Min))
		} else {
			dst = binary.AppendUvarint(dst, b.Count)
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(b.Sum))
			dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(b.Min))
			dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(b.Max))
			dst = binary.AppendUvarint(dst, uint64(b.Last)-uint64(b.First))
			dst = binary.AppendUvarint(dst, uint64(b.MaxGap))
		}
		idx, seq = next, b.MaxSeq
	}
	binary.BigEndian.PutUint32(dst[at:], uint32(len(dst)-at-8))
	binary.BigEndian.PutUint32(dst[at+4:], crc32.Checksum(dst[at+8:], castagnoli))
	return dst, nil
}

// decodeSealed reads frames from r to its end, handing each frame's
// buckets to emit with the frame's tier code (the slice is reused between
// calls); geometry gives compact frames their tier widths. It allocates
// one frame of scratch whatever the input claims; the first frame that is
// torn, mis-sized, fails its CRC or does not decode ends the read with
// its offset.
func decodeSealed(r io.Reader, geometry rollup.Config, emit func(dev lpwan.EUI64, tier byte, bs []rollup.Bucket)) error {
	var hdr [segFrameHeader]byte
	body := make([]byte, maxFrameBuckets*maxCompactBucket)
	bs := make([]rollup.Bucket, 0, maxFrameBuckets)
	for off := int64(0); ; off += int64(segFrameHeader + len(body)) {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("offset %d: torn frame header: %w", off, err)
		}
		length, tier, count := binary.BigEndian.Uint32(hdr[0:4]), hdr[16], binary.BigEndian.Uint32(hdr[17:21])
		sized := false
		if count > 0 && count <= maxFrameBuckets {
			switch tier {
			case tierHourlyFixed, tierDailyFixed:
				sized = length == segFrameHeader-8+count*fixedBucketSize
			case tierHourly, tierDaily:
				sized = length > segFrameHeader-8 && length <= segFrameHeader-8+count*maxCompactBucket
			}
		}
		if !sized {
			return fmt.Errorf("offset %d: bad frame header (length %d, tier %d, count %d)", off, length, tier, count)
		}
		body = body[:length-(segFrameHeader-8)]
		if _, err := io.ReadFull(r, body); err != nil {
			return fmt.Errorf("offset %d: torn frame: %w", off, err)
		}
		if crc32.Update(crc32.Checksum(hdr[8:], castagnoli), castagnoli, body) != binary.BigEndian.Uint32(hdr[4:8]) {
			return fmt.Errorf("offset %d: frame CRC mismatch", off)
		}
		var err error
		switch tier {
		case tierHourlyFixed, tierDailyFixed:
			bs = decodeFixed(body, bs[:0])
		case tierHourly:
			bs, err = decodeCompact(body, int(count), geometry.Hourly, bs[:0])
		case tierDaily:
			bs, err = decodeCompact(body, int(count), geometry.Daily, bs[:0])
		}
		if err != nil {
			return fmt.Errorf("offset %d: %w", off, err)
		}
		emit(lpwan.EUI64(hdr[8:16]), tier, bs)
	}
}

// decodeFixed appends the buckets of a fixed frame's body, 60 bytes each
// (FORMAT.md): read, never written.
func decodeFixed(body []byte, bs []rollup.Bucket) []rollup.Bucket {
	for b := body; len(b) > 0; b = b[fixedBucketSize:] {
		bs = append(bs, rollup.Bucket{
			Start:  time.Duration(binary.BigEndian.Uint64(b[0:8])),
			Count:  binary.BigEndian.Uint64(b[8:16]),
			Sum:    math.Float64frombits(binary.BigEndian.Uint64(b[16:24])),
			Min:    math.Float32frombits(binary.BigEndian.Uint32(b[24:28])),
			Max:    math.Float32frombits(binary.BigEndian.Uint32(b[28:32])),
			First:  time.Duration(binary.BigEndian.Uint64(b[32:40])),
			Last:   time.Duration(binary.BigEndian.Uint64(b[40:48])),
			MaxGap: time.Duration(binary.BigEndian.Uint64(b[48:56])),
			MaxSeq: binary.BigEndian.Uint32(b[56:60]),
		})
	}
	return bs
}

// decodeCompact appends the count buckets of a compact frame's body. It
// accepts exactly what appendCompactFrame writes, so the encoding stays
// canonical: it refuses a varint that is not minimal, a full-form bucket
// the single form carries, an unknown form, a start that does not ascend,
// any field that overflows, and bytes short or left over.
func decodeCompact(body []byte, count int, width time.Duration, bs []rollup.Bucket) ([]rollup.Bucket, error) {
	if width <= 0 {
		return bs, errors.New("compact frame, but the manifest gives no width for its tier")
	}
	d := varint.NewReader(body)
	var idx int64
	var seq uint32
	for i := 0; i < count; i++ {
		form := d.Fixed(1)[0]
		if i == 0 {
			idx = d.Varint()
		} else if step := d.Uvarint(); step == 0 || step > uint64(math.MaxInt64)-uint64(idx) {
			d.Fail("start does not ascend, or overflows")
		} else {
			idx = int64(uint64(idx) + step)
		}
		if idx > math.MaxInt64/int64(width) || idx < math.MinInt64/int64(width) {
			d.Fail("start overflows")
		}
		b := rollup.Bucket{Start: time.Duration(idx) * width, Count: 1}
		b.First = after(&d, b.Start)
		if delta := d.Varint(); delta < -int64(seq) || delta > math.MaxUint32-int64(seq) {
			d.Fail("max seq out of range")
		} else {
			seq = uint32(int64(seq) + delta)
		}
		b.MaxSeq, b.Last = seq, b.First
		switch form {
		case formSingle:
			b.Min = math.Float32frombits(binary.BigEndian.Uint32(d.Fixed(4)))
			b.Max, b.Sum = b.Min, float64(b.Min)
		case formFull:
			b.Count = d.Uvarint()
			b.Sum = math.Float64frombits(binary.BigEndian.Uint64(d.Fixed(8)))
			b.Min = math.Float32frombits(binary.BigEndian.Uint32(d.Fixed(4)))
			b.Max = math.Float32frombits(binary.BigEndian.Uint32(d.Fixed(4)))
			b.Last = after(&d, b.First)
			b.MaxGap = after(&d, 0)
			if singleForm(b) {
				d.Fail("full-form bucket the single form carries")
			}
		default:
			d.Fail(fmt.Sprintf("unknown form %d", form))
		}
		if err := d.Err(); err != nil {
			return bs, fmt.Errorf("bucket %d: %w", i, err)
		}
		bs = append(bs, b)
	}
	if d.Len() > 0 {
		return bs, fmt.Errorf("%d bytes after the last bucket", d.Len())
	}
	return bs, nil
}

// after reads a uvarint offset from base and returns base plus it.
func after(d *varint.Reader, base time.Duration) time.Duration {
	v := d.Uvarint()
	if v > uint64(math.MaxInt64)-uint64(base) {
		d.Fail("time overflows")
		return base
	}
	return time.Duration(uint64(base) + v)
}

func dataName(prefix string, n uint64) string { return fmt.Sprintf("%s-%08d.seg", prefix, n) }

// dataNumber parses a data file's name; ok only for exactly what dataName
// produces, so a manifest can never name a path outside its directory.
func dataNumber(name string) (prefix string, n uint64, ok bool) {
	for _, prefix := range []string{sealedPrefix, tailPrefix} {
		if _, err := fmt.Sscanf(name, prefix+"-%d.seg", &n); err == nil && name == dataName(prefix, n) {
			return prefix, n, true
		}
	}
	return "", 0, false
}

// maxDataFile is the highest data-file number in dir, 0 for none.
func maxDataFile(dir string) (max uint64) {
	entries, _ := os.ReadDir(dir) // a missing directory holds no files
	for _, e := range entries {
		if _, n, ok := dataNumber(e.Name()); ok && n > max {
			max = n
		}
	}
	return max
}

// appendFile makes f's file hold its valid prefix followed by data, and
// durable; whatever lay past the prefix (a failed or crashed attempt's
// bytes) is cut off first. f advances over data only on success. Every
// attempt opens its own descriptor, so an fsync that failed is never
// retried on the descriptor that may have dropped the pages.
func (s *Store) appendFile(dir string, f *dataFile, data []byte) error {
	path := filepath.Join(dir, f.Name)
	h, err := s.db.FS().OpenAppend(path)
	if err != nil {
		return fmt.Errorf("cloud: checkpoint open: %w", err)
	}
	err = h.Truncate(f.Bytes)
	if err == nil && len(data) > 0 {
		_, err = h.Write(data)
	}
	if err == nil {
		err = h.Sync()
	}
	if err = errors.Join(err, h.Close()); err != nil {
		return fmt.Errorf("cloud: checkpoint write %s: %w", path, err)
	}
	f.Bytes += int64(len(data))
	f.CRC = crc32.Update(f.CRC, castagnoli, data)
	s.ckptBytes.Add(uint64(len(data)))
	return nil
}

// appendSealed frames the exported buckets — per device, hourly then
// daily, at most maxFrameBuckets a compact frame — onto a's newest sealed
// segment, starting a new one whenever the newest is full.
func (s *Store) appendSealed(dir string, a *archive, delta *rollup.EngineState) error {
	a.sealed = slices.Clone(a.sealed) // the archive in force keeps its own list
	var buf []byte
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		err := s.appendFile(dir, &a.sealed[len(a.sealed)-1], buf)
		buf = buf[:0]
		return err
	}
	for _, ds := range delta.Devices {
		for _, run := range [...]struct {
			tier  byte
			width time.Duration
			bs    []rollup.Bucket
		}{{tierHourly, delta.Config.Hourly, ds.Hourly}, {tierDaily, delta.Config.Daily, ds.Daily}} {
			for bs := run.bs; len(bs) > 0; {
				if n := len(a.sealed); n == 0 || a.sealed[n-1].Bytes+int64(len(buf)) >= cmp.Or(s.segmentBytes, defaultSegmentBytes) {
					if err := flush(); err != nil {
						return err
					}
					a.sealed = append(a.sealed, dataFile{Name: dataName(sealedPrefix, a.next)})
					a.next++
				}
				n := min(len(bs), maxFrameBuckets)
				var err error
				if buf, err = appendCompactFrame(buf, ds.Device, run.tier, run.width, bs[:n]); err != nil {
					return err
				}
				bs = bs[n:]
				a.buckets += int64(n)
				s.ckptBuckets.Add(uint64(n))
			}
		}
	}
	return flush()
}

// readDataFile streams the valid prefix of one manifest-named file through
// decode, which must read it to the end, and checks name, length and CRC.
// Every failure names the file: damage here refuses the boot, it is never
// skipped.
func readDataFile(dir string, f dataFile, prefix string, decode func(io.Reader) error) error {
	path := filepath.Join(dir, f.Name)
	if p, _, ok := dataNumber(f.Name); !ok || p != prefix || f.Bytes < 0 {
		return fmt.Errorf("cloud: manifest names a bad %s file: %q, %d bytes", prefix, f.Name, f.Bytes)
	}
	h, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("cloud: checkpoint file: %w", err)
	}
	sum := crc32.New(castagnoli)
	err = decode(bufio.NewReaderSize(io.TeeReader(io.LimitReader(h, f.Bytes), sum), 1<<16))
	info, serr := h.Stat()
	_ = h.Close() // read-only handle
	switch {
	case err != nil || serr != nil:
		return fmt.Errorf("cloud: %s: %w", path, errors.Join(err, serr))
	case info.Size() < f.Bytes:
		return fmt.Errorf("cloud: %s: %d bytes on disk, the manifest records %d", path, info.Size(), f.Bytes)
	case sum.Sum32() != f.CRC:
		return fmt.Errorf("cloud: %s: CRC-32C %08x over %d bytes, the manifest records %08x", path, sum.Sum32(), f.Bytes, f.CRC)
	}
	return nil
}

// sweep runs after a commit and removes the data files in dir that the new
// manifest does not name: the superseded tail, a crashed attempt's strays,
// the archive a base replaced. Best effort: what it misses the next one
// finds.
func (s *Store) sweep(dir string) {
	named := map[string]bool{s.arch.tail.Name: true}
	for _, f := range s.arch.sealed {
		named[f.Name] = true
	}
	entries, _ := os.ReadDir(dir) // unreadable: nothing to reclaim this time
	for _, e := range entries {
		if _, _, ok := dataNumber(e.Name()); ok && !named[e.Name()] {
			_ = s.db.FS().Remove(filepath.Join(dir, e.Name()))
		}
	}
}
