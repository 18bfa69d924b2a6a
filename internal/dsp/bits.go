package dsp

import (
	"errors"
	"fmt"
)

// BitWriter packs bits MSB-first into a byte slice.
type BitWriter struct {
	buf  []byte
	cur  uint64 // pending bits, left-aligned within nbit
	nbit uint   // number of pending bits in cur (< 8 after flushing)
}

// NewBitWriter returns an empty writer.
func NewBitWriter() *BitWriter { return &BitWriter{} }

// Reset empties the writer for reuse, keeping the buffer it has grown.
// Bytes returned before the Reset are overwritten by what is written
// after it.
func (w *BitWriter) Reset() { w.buf, w.cur, w.nbit = w.buf[:0], 0, 0 }

// WriteBits writes the low n bits of v, MSB first. n must be <= 57.
func (w *BitWriter) WriteBits(v uint64, n uint) {
	if n == 0 {
		return
	}
	if n > 57 {
		panic(fmt.Sprintf("dsp: WriteBits n=%d > 57", n))
	}
	w.cur = w.cur<<n | (v & (1<<n - 1))
	w.nbit += n
	for w.nbit >= 8 {
		w.nbit -= 8
		w.buf = append(w.buf, byte(w.cur>>w.nbit))
	}
}

// WriteBit writes a single bit.
func (w *BitWriter) WriteBit(b uint) { w.WriteBits(uint64(b&1), 1) }

// WriteUnary writes v as v one-bits followed by a zero bit.
func (w *BitWriter) WriteUnary(v uint32) {
	for v >= 32 {
		w.WriteBits(0xFFFFFFFF, 32)
		v -= 32
	}
	// v ones then a zero: value (2^v - 1) << 1 in v+1 bits.
	w.WriteBits(uint64(1)<<(v+1)-2, uint(v)+1)
}

// Bytes returns the encoded bytes, padding the final partial byte with
// zero bits. The writer remains usable only for Bytes calls afterwards,
// until Reset.
func (w *BitWriter) Bytes() []byte {
	if w.nbit > 0 {
		w.buf = append(w.buf, byte(w.cur<<(8-w.nbit)))
		w.nbit = 0
		w.cur = 0
	}
	return w.buf
}

// Len returns the current length in bits.
func (w *BitWriter) Len() int { return len(w.buf)*8 + int(w.nbit) }

// ErrBitUnderflow is returned when a read runs past the end of input.
var ErrBitUnderflow = errors.New("dsp: bit reader underflow")

// BitReader unpacks MSB-first bits from a byte slice.
type BitReader struct {
	buf  []byte
	pos  int    // next byte index
	cur  uint64 // buffered bits, right-aligned
	nbit uint
}

// NewBitReader returns a reader over data.
func NewBitReader(data []byte) *BitReader { return &BitReader{buf: data} }

func (r *BitReader) fill(need uint) error {
	for r.nbit < need {
		if r.pos >= len(r.buf) {
			return ErrBitUnderflow
		}
		r.cur = r.cur<<8 | uint64(r.buf[r.pos])
		r.pos++
		r.nbit += 8
	}
	return nil
}

// ReadBits reads n bits MSB-first. n must be <= 57.
func (r *BitReader) ReadBits(n uint) (uint64, error) {
	if n == 0 {
		return 0, nil
	}
	if n > 57 {
		return 0, fmt.Errorf("dsp: ReadBits n=%d > 57", n)
	}
	if err := r.fill(n); err != nil {
		return 0, err
	}
	r.nbit -= n
	v := r.cur >> r.nbit & (1<<n - 1)
	return v, nil
}

// ReadBit reads a single bit.
func (r *BitReader) ReadBit() (uint, error) {
	v, err := r.ReadBits(1)
	return uint(v), err
}

// ReadUnary reads a unary-coded value (count of one-bits before a zero).
// Values above maxUnary are rejected to bound the cost of hostile input.
const maxUnary = 1 << 20

func (r *BitReader) ReadUnary() (uint32, error) {
	var v uint32
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if b == 0 {
			return v, nil
		}
		v++
		if v > maxUnary {
			return 0, errors.New("dsp: unary run too long")
		}
	}
}

// Remaining reports how many unread bits are left.
func (r *BitReader) Remaining() int {
	return (len(r.buf)-r.pos)*8 + int(r.nbit)
}
