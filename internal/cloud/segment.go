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
)

// The checkpoint's data files; DESIGN.md S41 gives every offset. A sealed
// segment is a run of frames, integers big-endian:
//
//	0:4   payload length: 13 + 60×count
//	4:8   CRC-32C (Castagnoli) of the payload
//	8:16  device EUI-64           ┐
//	16    tier: 1 hourly, 2 daily │ payload
//	17:21 bucket count, 1..1024   │
//	21:   count × 60-byte buckets ┘
//
// one frame per run of one device's buckets in one tier, so an offset
// index can later address a device without a format change. The tail file
// is a run of the WAL's own 38-byte point records (tsdb.AppendRecord).
const (
	segFrameHeader  = 21
	bucketSize      = 60
	maxFrameBuckets = 1024

	tierHourly byte = 1
	tierDaily  byte = 2

	sealedPrefix = "sealed"
	tailPrefix   = "tail"

	// defaultSegmentBytes: a checkpoint starts a new sealed segment once
	// the newest has reached it.
	defaultSegmentBytes = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendBucketFrame appends one frame holding bs (at most maxFrameBuckets).
func appendBucketFrame(dst []byte, dev lpwan.EUI64, tier byte, bs []rollup.Bucket) []byte {
	at := len(dst)
	dst = binary.BigEndian.AppendUint64(dst, 0) // length and CRC, filled in below
	dst = append(dst, dev[:]...)
	dst = append(dst, tier)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(bs)))
	for _, b := range bs {
		dst = binary.BigEndian.AppendUint64(dst, uint64(b.Start))
		dst = binary.BigEndian.AppendUint64(dst, b.Count)
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(b.Sum))
		dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(b.Min))
		dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(b.Max))
		dst = binary.BigEndian.AppendUint64(dst, uint64(b.First))
		dst = binary.BigEndian.AppendUint64(dst, uint64(b.Last))
		dst = binary.BigEndian.AppendUint64(dst, uint64(b.MaxGap))
		dst = binary.BigEndian.AppendUint32(dst, b.MaxSeq)
	}
	binary.BigEndian.PutUint32(dst[at:], uint32(len(dst)-at-8))
	binary.BigEndian.PutUint32(dst[at+4:], crc32.Checksum(dst[at+8:], castagnoli))
	return dst
}

// decodeSealed reads frames from r to its end, handing each frame's
// buckets to emit (the slice is reused between calls). It allocates one
// frame of scratch whatever the input claims; the first frame that is
// torn, mis-sized or fails its CRC ends the read with its offset.
func decodeSealed(r io.Reader, emit func(dev lpwan.EUI64, tier byte, bs []rollup.Bucket)) error {
	var hdr [segFrameHeader]byte
	body := make([]byte, maxFrameBuckets*bucketSize)
	bs := make([]rollup.Bucket, 0, maxFrameBuckets)
	for off := int64(0); ; off += int64(segFrameHeader + len(body)) {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("offset %d: torn frame header: %w", off, err)
		}
		length, tier, count := binary.BigEndian.Uint32(hdr[0:4]), hdr[16], binary.BigEndian.Uint32(hdr[17:21])
		if count == 0 || count > maxFrameBuckets || length != segFrameHeader-8+count*bucketSize || (tier != tierHourly && tier != tierDaily) {
			return fmt.Errorf("offset %d: bad frame header (length %d, tier %d, count %d)", off, length, tier, count)
		}
		body = body[:count*bucketSize]
		if _, err := io.ReadFull(r, body); err != nil {
			return fmt.Errorf("offset %d: torn frame: %w", off, err)
		}
		if crc32.Update(crc32.Checksum(hdr[8:], castagnoli), castagnoli, body) != binary.BigEndian.Uint32(hdr[4:8]) {
			return fmt.Errorf("offset %d: frame CRC mismatch", off)
		}
		bs = bs[:0]
		for b := body; len(b) > 0; b = b[bucketSize:] {
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
		emit(lpwan.EUI64(hdr[8:16]), tier, bs)
	}
}

// ckptFile and ckptFS are the disk as the checkpoint writer sees it: every
// write, fsync, rename and unlink of a checkpoint goes through this seam.
// Production is osFS; only tests substitute a fault injector.
type ckptFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

type ckptFS interface {
	Mkdir(dir string) error // an existing directory is not an error
	OpenAppend(path string) (ckptFile, error)
	Rename(from, to string) error
	Remove(path string) error
	SyncDir(dir string) error
}

type osFS struct{}

func (osFS) Mkdir(dir string) error {
	if err := os.Mkdir(dir, 0o755); !os.IsExist(err) {
		return err
	}
	return nil
}
func (osFS) Rename(from, to string) error { return os.Rename(from, to) }
func (osFS) Remove(path string) error     { return os.Remove(path) }
func (osFS) OpenAppend(path string) (ckptFile, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
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
	h, err := s.fs.OpenAppend(path)
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
// daily, at most maxFrameBuckets a frame — onto a's newest sealed segment,
// starting a new one whenever the newest is full.
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
			tier byte
			bs   []rollup.Bucket
		}{{tierHourly, ds.Hourly}, {tierDaily, ds.Daily}} {
			for bs := run.bs; len(bs) > 0; {
				if n := len(a.sealed); n == 0 || a.sealed[n-1].Bytes+int64(len(buf)) >= cmp.Or(s.segmentBytes, defaultSegmentBytes) {
					if err := flush(); err != nil {
						return err
					}
					a.sealed = append(a.sealed, dataFile{Name: dataName(sealedPrefix, a.next)})
					a.next++
				}
				n := min(len(bs), maxFrameBuckets)
				buf = appendBucketFrame(buf, ds.Device, run.tier, bs[:n])
				bs = bs[n:]
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
			_ = s.fs.Remove(filepath.Join(dir, e.Name()))
		}
	}
}
