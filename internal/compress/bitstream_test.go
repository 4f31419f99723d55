package compress

// bitWriter accumulates a big-endian bit stream. Seeding buf with an
// existing slice appends the stream after its contents (the byte-boundary
// start keeps the prefix untouched), which is how the Append* compression
// APIs reuse caller-provided buffers.
type bitWriter struct {
	buf  []byte
	nbit uint // bits used in the last byte (0..7), 0 means byte boundary
}

// writeBits appends the low n bits of v (n <= 64), most significant first.
func (w *bitWriter) writeBits(v uint64, n uint) {
	for n > 0 {
		if w.nbit == 0 {
			w.buf = append(w.buf, 0)
		}
		free := 8 - w.nbit
		take := n
		if take > free {
			take = free
		}
		shift := n - take
		bits := byte((v >> shift) & ((1 << take) - 1))
		w.buf[len(w.buf)-1] |= bits << (free - take)
		w.nbit = (w.nbit + take) % 8
		n -= take
	}
}

// bytes returns the accumulated stream.
func (w *bitWriter) bytes() []byte { return w.buf }

// growZero extends dst by n bytes and returns the extended slice with the
// new region zeroed. The decoders' zero-run and all-zero cases rely on a
// zeroed output, and reused buffers carry stale bytes, so the extension is
// cleared explicitly even when capacity is recycled.
func growZero(dst []byte, n int) []byte {
	total := len(dst) + n
	if cap(dst) >= total {
		out := dst[:total]
		ext := out[len(dst):]
		for i := range ext {
			ext[i] = 0
		}
		return out
	}
	out := make([]byte, total)
	copy(out, dst)
	return out
}

// bitReader consumes a big-endian bit stream produced by bitWriter.
type bitReader struct {
	buf []byte
	pos uint // absolute bit position
}

// readBits returns the next n bits (n <= 64), most significant first.
func (r *bitReader) readBits(n uint) uint64 {
	var v uint64
	for n > 0 {
		byteIdx := r.pos / 8
		bitIdx := r.pos % 8
		if int(byteIdx) >= len(r.buf) {
			return v << n // ran off the end: zero-fill (callers validate sizes)
		}
		free := 8 - bitIdx
		take := n
		if take > free {
			take = free
		}
		bits := (uint64(r.buf[byteIdx]) >> (free - take)) & ((1 << take) - 1)
		v = (v << take) | bits
		r.pos += take
		n -= take
	}
	return v
}
