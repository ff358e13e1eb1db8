// Package varint reads the archive's compact encodings canonically: the
// sealed segment's compact buckets (internal/cloud) and the tail's device
// runs (internal/tsdb) both decode through one Reader, so both refuse the
// same things the same way. A varint is Go's encoding/binary LEB128, and
// a canonical one is in its shortest form and fits 64 bits; FORMAT.md
// gives the bytes.
package varint

import (
	"encoding/binary"
	"errors"
)

// Reader walks an encoded body. The first fault sticks: every read after
// it returns zeros and consumes nothing, so a decoder reads a whole item
// and checks Err once.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{b: b} }

var zeros [8]byte

// Err is the first fault, or nil.
func (d *Reader) Err() error { return d.err }

// Len is how many bytes are left unread.
func (d *Reader) Len() int { return len(d.b) }

// Fail records msg as the fault, unless there already is one.
func (d *Reader) Fail(msg string) {
	if d.err == nil {
		d.err = errors.New(msg)
	}
}

// Fixed returns the next n bytes, n at most 8; short input is a fault.
func (d *Reader) Fixed(n int) []byte {
	if d.err == nil && len(d.b) < n {
		d.Fail("short")
	}
	if d.err != nil {
		return zeros[:n]
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

// Uvarint reads an unsigned varint, refusing one that is short, longer
// than its shortest form, or past 64 bits.
func (d *Reader) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) > 0 && d.b[0] < 0x80 { // one byte: most fields of most items
		v := d.b[0]
		d.b = d.b[1:]
		return uint64(v)
	}
	v, n := binary.Uvarint(d.b)
	switch {
	case n == 0:
		d.Fail("short")
	case n < 0:
		d.Fail("varint overflows 64 bits")
	case n > 1 && d.b[n-1] == 0:
		d.Fail("varint not minimal")
	default:
		d.b = d.b[n:]
		return v
	}
	return 0
}

// Varint reads a zigzag varint, binary.AppendVarint's encoding.
func (d *Reader) Varint() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}
