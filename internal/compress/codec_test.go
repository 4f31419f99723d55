package compress

// The full FPC, BDI and C-Pack encoders and decoders. The simulator only
// needs the size estimators (CompressedSize, SizeAtMost, RangeFits); these
// codecs are the test oracle that proves every estimated size is the length
// of a real encoding that decodes back to its input.

import "encoding/binary"

func fitsSigned(v uint32, bits uint) bool {
	s := int32(v)
	min := -(int32(1) << (bits - 1))
	max := (int32(1) << (bits - 1)) - 1
	return s >= min && s <= max
}

// classify returns the pattern and payload bit count for one non-zero-run word.
func fpcClassify(w uint32) (pattern int, payloadBits uint) {
	switch {
	case fitsSigned(w, 4):
		return fpcSign4, 4
	case fitsSigned(w, 8):
		return fpcSign8, 8
	case fitsSigned(w, 16):
		return fpcSign16, 16
	case w&0xFFFF == 0:
		return fpcHalfZero, 16
	case fitsSigned(w>>16, 8) && fitsSigned(w&0xFFFF, 8):
		return fpcTwoBytes, 16
	case byte(w) == byte(w>>8) && byte(w) == byte(w>>16) && byte(w) == byte(w>>24):
		return fpcRepByte, 8
	default:
		return fpcUncompr, 32
	}
}

// Compress encodes data (len multiple of 4) into an FPC bit stream.
func (f FPC) Compress(data []byte) []byte { return f.AppendCompress(nil, data) }

// AppendCompress appends the FPC encoding of data to dst and returns the
// extended slice.
func (FPC) AppendCompress(dst, data []byte) []byte {
	w := &bitWriter{buf: dst}
	nwords := len(data) / 4
	for i := 0; i < nwords; {
		word := binary.LittleEndian.Uint32(data[i*4:])
		if word == 0 {
			run := 1
			for i+run < nwords && run < 8 && binary.LittleEndian.Uint32(data[(i+run)*4:]) == 0 {
				run++
			}
			w.writeBits(fpcZeroRun, fpcPrefixLen)
			w.writeBits(uint64(run-1), 3)
			i += run
			continue
		}
		pattern, payload := fpcClassify(word)
		w.writeBits(uint64(pattern), fpcPrefixLen)
		switch pattern {
		case fpcSign4, fpcSign8, fpcSign16:
			w.writeBits(uint64(word)&((1<<payload)-1), payload)
		case fpcHalfZero:
			w.writeBits(uint64(word>>16), 16)
		case fpcTwoBytes:
			w.writeBits(uint64(word>>16)&0xFF, 8)
			w.writeBits(uint64(word)&0xFF, 8)
		case fpcRepByte:
			w.writeBits(uint64(word)&0xFF, 8)
		case fpcUncompr:
			w.writeBits(uint64(word), 32)
		}
		i++
	}
	return w.bytes()
}

func signExtend(v uint64, bits uint) uint32 {
	shift := 32 - bits
	return uint32(int32(uint32(v)<<shift) >> shift)
}

// Decompress reconstructs origLen bytes (multiple of 4) from an FPC stream.
func (f FPC) Decompress(comp []byte, origLen int) []byte {
	return f.AppendDecompress(nil, comp, origLen)
}

// AppendDecompress appends the origLen reconstructed bytes to dst and
// returns the extended slice. The zero-run case leaves words unwritten, so
// the growZero extension's explicit clearing is load-bearing here.
func (FPC) AppendDecompress(dst, comp []byte, origLen int) []byte {
	r := &bitReader{buf: comp}
	full := growZero(dst, origLen)
	out := full[len(full)-origLen:]
	nwords := origLen / 4
	for i := 0; i < nwords; {
		pattern := int(r.readBits(fpcPrefixLen))
		switch pattern {
		case fpcZeroRun:
			run := int(r.readBits(3)) + 1
			i += run // words are already zero
		case fpcSign4:
			binary.LittleEndian.PutUint32(out[i*4:], signExtend(r.readBits(4), 4))
			i++
		case fpcSign8:
			binary.LittleEndian.PutUint32(out[i*4:], signExtend(r.readBits(8), 8))
			i++
		case fpcSign16:
			binary.LittleEndian.PutUint32(out[i*4:], signExtend(r.readBits(16), 16))
			i++
		case fpcHalfZero:
			binary.LittleEndian.PutUint32(out[i*4:], uint32(r.readBits(16))<<16)
			i++
		case fpcTwoBytes:
			hi := signExtend(r.readBits(8), 8) & 0xFFFF
			lo := signExtend(r.readBits(8), 8) & 0xFFFF
			binary.LittleEndian.PutUint32(out[i*4:], hi<<16|lo)
			i++
		case fpcRepByte:
			b := uint32(r.readBits(8))
			binary.LittleEndian.PutUint32(out[i*4:], b|b<<8|b<<16|b<<24)
			i++
		case fpcUncompr:
			binary.LittleEndian.PutUint32(out[i*4:], uint32(r.readBits(32)))
			i++
		}
	}
	return full
}

func putChunk(out []byte, off int, v uint64, size int) {
	switch size {
	case 8:
		binary.LittleEndian.PutUint64(out[off:], v)
	case 4:
		binary.LittleEndian.PutUint32(out[off:], uint32(v))
	case 2:
		binary.LittleEndian.PutUint16(out[off:], uint16(v))
	}
}

// Compress encodes data with the best BDI configuration.
func (b BDI) Compress(data []byte) []byte { return b.AppendCompress(nil, data) }

// AppendCompress appends the best BDI encoding of data to dst and returns
// the extended slice. Passing a reused buffer (sliced to length 0) makes the
// encode allocation-free once the buffer has grown to a steady state.
func (BDI) AppendCompress(dst, data []byte) []byte {
	if allZero(data) {
		return append(dst, bdiZeros)
	}
	if isRep8(data) {
		dst = append(dst, bdiRep8)
		return append(dst, data[:8]...)
	}
	bestSize := 1 + len(data)
	var bestCfg *bdiConfig
	for i := range bdiConfigs {
		if sz, ok := tryConfig(data, bdiConfigs[i]); ok && sz < bestSize {
			bestSize, bestCfg = sz, &bdiConfigs[i]
		}
	}
	if bestCfg == nil {
		dst = append(dst, bdiUncompressed)
		return append(dst, data...)
	}
	cfg := *bestCfg
	n := len(data) / cfg.base
	full := growZero(dst, bestSize)
	out := full[len(full)-bestSize:]
	out[0] = cfg.id
	maskOff := 1 + cfg.base
	deltaOff := maskOff + (n+7)/8
	var base uint64
	haveBase := false
	for i := 0; i < n; i++ {
		v := chunkVal(data, i*cfg.base, cfg.base)
		useZero := deltaFits(v, 0, cfg.base, cfg.delta)
		var d uint64
		if useZero {
			d = v
		} else {
			if !haveBase {
				base, haveBase = v, true
				putChunk(out, 1, base, cfg.base)
			}
			d = v - base
			out[maskOff+i/8] |= 1 << (i % 8) // mask bit 1: use arbitrary base
		}
		for b := 0; b < cfg.delta; b++ {
			out[deltaOff+i*cfg.delta+b] = byte(d >> (8 * b))
		}
	}
	return full
}

// Decompress reconstructs origLen bytes from a BDI stream.
func (b BDI) Decompress(comp []byte, origLen int) []byte {
	return b.AppendDecompress(nil, comp, origLen)
}

// AppendDecompress appends the origLen reconstructed bytes to dst and
// returns the extended slice.
func (BDI) AppendDecompress(dst, comp []byte, origLen int) []byte {
	full := growZero(dst, origLen)
	out := full[len(full)-origLen:]
	if len(comp) == 0 {
		return full
	}
	switch comp[0] {
	case bdiZeros:
		return full
	case bdiRep8:
		for off := 0; off < origLen; off += 8 {
			copy(out[off:], comp[1:9])
		}
		return full
	case bdiUncompressed:
		copy(out, comp[1:])
		return full
	}
	var cfg bdiConfig
	for _, c := range bdiConfigs {
		if c.id == comp[0] {
			cfg = c
			break
		}
	}
	n := origLen / cfg.base
	maskOff := 1 + cfg.base
	deltaOff := maskOff + (n+7)/8
	base := chunkVal(comp, 1, cfg.base)
	for i := 0; i < n; i++ {
		var d uint64
		for b := cfg.delta - 1; b >= 0; b-- {
			d = d<<8 | uint64(comp[deltaOff+i*cfg.delta+b])
		}
		// Sign-extend the delta.
		shift := uint(64 - cfg.delta*8)
		sd := uint64(int64(d<<shift) >> shift)
		v := sd
		if comp[maskOff+i/8]&(1<<(i%8)) != 0 {
			v = base + sd
		}
		putChunk(out, i*cfg.base, v, cfg.base)
	}
	return full
}

// C-Pack stream opcodes for the explicit encoder/decoder.
const (
	cpZZZZ = 0x0 // 00
	cpMMMM = 0x2 // 10
	cpXXXX = 0x1 // 01
	cpMMXX = 0xC // 1100
	cpZZZX = 0xD // 1101
	cpMMMX = 0xE // 1110
)

// Compress encodes data into a C-Pack bit stream.
func (c CPack) Compress(data []byte) []byte { return c.AppendCompress(nil, data) }

// AppendCompress appends the C-Pack encoding of data to dst and returns the
// extended slice.
func (CPack) AppendCompress(dst, data []byte) []byte {
	var d cpackDict
	w := &bitWriter{buf: dst}
	for off := 0; off+4 <= len(data); off += 4 {
		word := binary.LittleEndian.Uint32(data[off:])
		switch {
		case word == 0:
			w.writeBits(cpZZZZ, 2)
			continue
		case word&0xFFFFFF00 == 0:
			w.writeBits(cpZZZX, 4)
			w.writeBits(uint64(word&0xFF), 8)
			continue
		}
		kind, idx := d.match(word)
		switch kind {
		case 2:
			w.writeBits(cpMMMM, 2)
			w.writeBits(uint64(idx), 4)
		case 1:
			w.writeBits(cpMMMX, 4)
			w.writeBits(uint64(idx), 4)
			w.writeBits(uint64(word&0xFF), 8)
			d.push(word)
		case 0:
			w.writeBits(cpMMXX, 4)
			w.writeBits(uint64(idx), 4)
			w.writeBits(uint64(word&0xFFFF), 16)
			d.push(word)
		default:
			w.writeBits(cpXXXX, 2)
			w.writeBits(uint64(word), 32)
			d.push(word)
		}
	}
	return w.bytes()
}

// Decompress reconstructs origLen bytes from a C-Pack stream.
func (c CPack) Decompress(comp []byte, origLen int) []byte {
	return c.AppendDecompress(nil, comp, origLen)
}

// AppendDecompress appends the origLen reconstructed bytes to dst and
// returns the extended slice.
func (CPack) AppendDecompress(dst, comp []byte, origLen int) []byte {
	var d cpackDict
	r := &bitReader{buf: comp}
	full := growZero(dst, origLen)
	out := full[len(full)-origLen:]
	for off := 0; off+4 <= origLen; off += 4 {
		var word uint32
		switch r.readBits(2) {
		case cpZZZZ:
			word = 0
		case cpMMMM:
			word = d.entries[r.readBits(4)]
		case cpXXXX:
			word = uint32(r.readBits(32))
			d.push(word)
		default: // 11xx: one more bit selects among the 4-bit opcodes
			switch r.readBits(2) {
			case 0: // 1100 mmxx
				idx := r.readBits(4)
				low := r.readBits(16)
				word = d.entries[idx]&0xFFFF0000 | uint32(low)
				d.push(word)
			case 1: // 1101 zzzx
				word = uint32(r.readBits(8))
			case 2: // 1110 mmmx
				idx := r.readBits(4)
				low := r.readBits(8)
				word = d.entries[idx]&0xFFFFFF00 | uint32(low)
				d.push(word)
			}
		}
		binary.LittleEndian.PutUint32(out[off:], word)
	}
	return full
}
