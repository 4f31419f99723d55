// Package mem models the two memory devices of the hybrid system: a DDR4
// fast memory and an NVM slow memory, with per-channel bandwidth occupancy,
// per-bank row-buffer timing and the energy accounting of Table I. The model
// is deliberately at the "busy-until" level of detail — enough to produce
// queueing, bandwidth saturation and realistic latency gaps between the
// tiers, which is what the paper's results depend on — rather than a full
// DDR protocol state machine.
package mem

import (
	"baryon/internal/obs"
	"baryon/internal/sim"
)

// Config describes one memory device. All latencies are in CPU cycles
// (3.2 GHz per Table I).
type Config struct {
	Name     string
	Channels int
	Banks    int // banks per channel (rank × bank folded together)

	// RowHitLatency is the access latency when the target row is open
	// (CAS only); RowMissLatency covers PRE+ACT+CAS.
	RowHitLatency  uint64
	RowMissLatency uint64
	WriteLatency   uint64 // additional device write time beyond the read path

	// BytesPerCycle is the peak per-channel transfer rate.
	BytesPerCycle float64

	RowBufferBytes uint64

	// Energy model.
	ReadPJPerBit  float64
	WritePJPerBit float64
	ActivatePJ    float64 // per row activation (ACT+PRE pair)

	// DetailedTiming, when non-nil, replaces the busy-until demand-access
	// model with the protocol-level DDR engine (JEDEC bank-state machine
	// with refresh); background traffic keeps the queue model.
	DetailedTiming *DDRTimings

	// CXL, when it describes any link behaviour (CXLParams.Enabled), puts
	// the device behind a CXL-expander link: every access pays the serdes
	// latency and serialises on the link/internal-bandwidth frontier. Nil
	// or zero-valued params leave the device bit-identical to one without
	// the model.
	CXL *CXLParams
}

// DDR4DetailedConfig returns the Table I fast memory driven by the
// protocol-level DDR4-3200 timing engine.
func DDR4DetailedConfig() Config {
	cfg := DDR4Config()
	t := DDR4Timings3200()
	cfg.DetailedTiming = &t
	return cfg
}

// DDR4Config returns the Table I fast-memory device: DDR4-3200, 4 channels,
// 2 ranks x 16 banks, 22-22-22 timing, 5.0 pJ/bit RD/WR, 535.8 pJ ACT/PRE.
func DDR4Config() Config {
	return Config{
		Name:     "DDR4-3200",
		Channels: 4,
		Banks:    32, // 2 ranks x 16 banks
		// tCAS = 22 DRAM cycles @1600 MHz = 13.75 ns = 44 CPU cycles @3.2 GHz.
		RowHitLatency:  44,
		RowMissLatency: 132, // tRP + tRCD + tCAS
		WriteLatency:   44,
		// 3200 MT/s x 8 B bus = 25.6 GB/s per channel = 8 B per CPU cycle.
		BytesPerCycle:  8.0,
		RowBufferBytes: 2048,
		ReadPJPerBit:   5.0,
		WritePJPerBit:  5.0,
		ActivatePJ:     535.8,
	}
}

// NVMConfig returns the Table I slow-memory device: 1333 MHz, 4 channels,
// 1 rank x 8 banks, 76.92 ns read / 230.77 ns write, 14 / 21 pJ/bit.
func NVMConfig() Config {
	return Config{
		Name:     "NVM",
		Channels: 4,
		Banks:    8,
		// 76.92 ns = 246 CPU cycles @3.2 GHz; NVM row buffers help little.
		RowHitLatency:  246,
		RowMissLatency: 246,
		// 230.77 ns = 738 cycles; extra over the read path.
		WriteLatency: 492,
		// 1333 MT/s x 8 B = 10.66 GB/s per channel = 3.33 B per CPU cycle.
		BytesPerCycle:  3.33,
		RowBufferBytes: 2048,
		ReadPJPerBit:   14.0,
		WritePJPerBit:  21.0,
		ActivatePJ:     0, // folded into per-bit cost for NVM
	}
}

type bank struct {
	busyUntil uint64
	openRow   uint64
	hasRow    bool
}

type channel struct {
	freeAt  float64 // demand bus occupancy frontier, in cycles
	bgBytes float64 // queued background bytes not yet drained
	banks   []bank
}

// bgHighWater is the per-channel background queue depth (bytes) the
// controller can absorb before background traffic starts delaying demand
// accesses. Below it, background transfers drain into idle bus cycles.
const bgHighWater = 32 * 1024

// Device is one memory device instance.
type Device struct {
	cfg      Config
	engine   *DDREngine
	channels []channel

	reads, writes           *sim.Counter
	bytesRead, bytesWritten *sim.Counter
	rowHits, rowMisses      *sim.Counter
	energy                  *sim.FloatAccum
	readLat                 *sim.Counter
	queueHist, svcHist      *sim.Histogram
	tracer                  *obs.Tracer

	// link, when non-nil, is the CXL-expander front end every access goes
	// through (see cxl.go). Nil keeps the direct-attached hot path.
	link *cxlLink
}

// Counters exposes the device's typed metric handles so run harnesses can
// compute window deltas against snapshots without string-keyed lookups.
type Counters struct {
	Reads, Writes           *sim.Counter
	BytesRead, BytesWritten *sim.Counter
	RowHits, RowMisses      *sim.Counter
	// ReadLatCycles accumulates observed demand-read latency.
	ReadLatCycles *sim.Counter
	// EnergyPJ accumulates access energy in picojoules.
	EnergyPJ *sim.FloatAccum
	// CXLLinkBytes/CXLInternalBytes are the expander's host-link and
	// internal-path traffic counters; nil on devices without a CXL link.
	CXLLinkBytes, CXLInternalBytes *sim.Counter
}

// NewDevice builds a device from cfg, registering its counters in stats
// under the device name scope (e.g. "DDR4-3200.bytesRead"). All traffic,
// energy and latency metrics live on the run registry so they participate
// in snapshots and warmup/measurement windows.
func NewDevice(cfg Config, stats *sim.Stats) *Device {
	d := &Device{cfg: cfg}
	if cfg.DetailedTiming != nil {
		d.engine = NewDDREngine(*cfg.DetailedTiming, cfg.Channels, cfg.Banks, cfg.RowBufferBytes)
	}
	d.channels = make([]channel, cfg.Channels)
	for i := range d.channels {
		d.channels[i].banks = make([]bank, cfg.Banks)
	}
	s := stats.Scope(cfg.Name)
	d.reads = s.Counter("reads")
	d.writes = s.Counter("writes")
	d.bytesRead = s.Counter("bytesRead")
	d.bytesWritten = s.Counter("bytesWritten")
	d.rowHits = s.Counter("rowHits")
	d.rowMisses = s.Counter("rowMisses")
	d.readLat = s.Counter("readLatCycles")
	d.energy = s.Float("energyPJ")
	// Queue occupancy (cycles a demand access waits for channel/bank) and
	// end-to-end device service latency, per demand access.
	d.queueHist = s.Histogram("lat.queue")
	d.svcHist = s.Histogram("lat.service")
	if cfg.CXL.Enabled() {
		d.link = newCXLLink(*cfg.CXL, s)
	}
	return d
}

// SetContentProbe attaches a function that returns the current bytes at a
// device address, used by expander-side compression to estimate the
// compressed size crossing the internal path. Only CXL devices with a
// Compression mode consult it; without a probe the internal path carries
// uncompressed bytes. Nil detaches.
func (d *Device) SetContentProbe(fn func(addr, size uint64) []byte) {
	if d.link != nil {
		d.link.probe = fn
	}
}

// SetTracer attaches a request-lifecycle tracer; device service spans are
// recorded for sampled requests. Nil detaches.
func (d *Device) SetTracer(t *obs.Tracer) { d.tracer = t }

// Counters returns the device's typed metric handles.
func (d *Device) Counters() Counters {
	c := Counters{
		Reads: d.reads, Writes: d.writes,
		BytesRead: d.bytesRead, BytesWritten: d.bytesWritten,
		RowHits: d.rowHits, RowMisses: d.rowMisses,
		ReadLatCycles: d.readLat, EnergyPJ: d.energy,
	}
	if d.link != nil {
		c.CXLLinkBytes, c.CXLInternalBytes = d.link.linkBytes, d.link.internalBytes
	}
	return c
}

// Access performs a read or write of size bytes at device address addr
// starting no earlier than cycle now, and returns the completion cycle.
// Writes are accounted for bandwidth/energy but complete immediately from
// the requester's perspective (posted writes buffered in the controller);
// the returned cycle is when the data has actually been absorbed.
//
// Transfers larger than the 256 B channel-interleave granularity are
// striped across channels, as the address mapping implies: each 256 B chunk
// goes to its own channel and the access completes when the last chunk does.
func (d *Device) Access(now uint64, addr uint64, size uint64, write bool) uint64 {
	if size == 0 {
		return now
	}
	if d.link != nil {
		return d.accessCXL(now, addr, size, write)
	}
	return d.accessStriped(now, addr, size, write)
}

// accessCXL wraps one demand access in the expander link: the transfer is
// admitted FIFO onto the link frontier, the media sees the request one flit
// latency after it clears the link, and reads pay the return flit on top of
// the media completion. Writes are posted at the expander.
func (d *Device) accessCXL(now uint64, addr uint64, size uint64, write bool) uint64 {
	clear := uint64(d.link.admit(now, addr, size))
	issue := clear + d.link.p.LinkLatencyCycles
	d.link.queueHist.Observe(issue - now)
	done := d.accessStriped(issue, addr, size, write)
	if !write {
		done += d.link.p.LinkLatencyCycles
	}
	return done
}

// accessStriped performs the media-side access, striping transfers larger
// than the channel-interleave granularity.
func (d *Device) accessStriped(now uint64, addr uint64, size uint64, write bool) uint64 {
	const interleave = 256
	if size > interleave {
		var done uint64
		for off := uint64(0); off < size; off += interleave {
			n := size - off
			if n > interleave {
				n = interleave
			}
			if end := d.access(now, addr+off, n, write); end > done {
				done = end
			}
		}
		return done
	}
	return d.access(now, addr, size, write)
}

// AccessBackground performs a transfer that is off the critical path
// (fills, writebacks, migrations, commits). Background bytes drain into
// idle bus cycles; they only delay demand accesses once the per-channel
// background queue exceeds its high-water mark — the "replacements are off
// the critical path" behaviour of real memory controllers. The returned
// cycle is a nominal completion time.
func (d *Device) AccessBackground(now uint64, addr uint64, size uint64, write bool) uint64 {
	if size == 0 {
		return now
	}
	nominal := now
	if d.link != nil {
		// Background traffic crosses the same link: it occupies the shared
		// frontier (delaying later demand accesses) and its nominal
		// completion shifts by the queueing + flit latency.
		nominal = uint64(d.link.admit(now, addr, size)) + d.link.p.LinkLatencyCycles
	}
	// Bytes, energy and op counts are accounted as for demand traffic.
	const interleave = 256
	for off := uint64(0); off < size; off += interleave {
		n := size - off
		if n > interleave {
			n = interleave
		}
		ch := &d.channels[((addr+off)/256)%uint64(d.cfg.Channels)]
		d.drain(ch, now)
		ch.bgBytes += float64(n)
		d.account(n, write)
	}
	return nominal + d.cfg.RowMissLatency + uint64(float64(size)/d.cfg.BytesPerCycle)
}

// drain moves queued background bytes into the idle bus time up to now.
func (d *Device) drain(ch *channel, now uint64) {
	if float64(now) > ch.freeAt {
		idle := float64(now) - ch.freeAt
		drained := idle * d.cfg.BytesPerCycle
		if drained > ch.bgBytes {
			drained = ch.bgBytes
		}
		ch.bgBytes -= drained
		ch.freeAt += drained / d.cfg.BytesPerCycle
	}
}

// access serves one demand chunk: a timing model (the busy-until queue, or
// the protocol engine when configured) yields its completion cycle and
// row-buffer outcome, then the accounting common to both runs once.
func (d *Device) access(now uint64, addr uint64, size uint64, write bool) uint64 {
	var done uint64
	var rowHit bool
	if d.engine != nil {
		done, rowHit = d.accessDetailed(now, addr, size, write)
	} else {
		ch := &d.channels[(addr/256)%uint64(d.cfg.Channels)]
		bk := &ch.banks[(addr/d.cfg.RowBufferBytes)%uint64(d.cfg.Banks)]
		row := addr / d.cfg.RowBufferBytes / uint64(d.cfg.Banks)

		d.drain(ch, now)
		start := float64(now)
		if ch.freeAt > start {
			start = ch.freeAt
		}
		// A saturated background queue spills onto the demand path.
		if ch.bgBytes > bgHighWater {
			start += (ch.bgBytes - bgHighWater) / d.cfg.BytesPerCycle
			ch.bgBytes = bgHighWater
		}
		if float64(bk.busyUntil) > start {
			start = float64(bk.busyUntil)
		}
		queue := uint64(start) - now
		d.queueHist.Observe(queue)

		lat := d.cfg.RowHitLatency
		rowHit = bk.hasRow && bk.openRow == row
		if !rowHit {
			lat = d.cfg.RowMissLatency
			bk.openRow, bk.hasRow = row, true
		}
		d.countRow(rowHit)
		if write {
			lat += d.cfg.WriteLatency
		}

		xfer := float64(size) / d.cfg.BytesPerCycle
		ch.freeAt = start + xfer
		done = uint64(start+xfer) + lat
		// The bank is occupied for the transfer itself; subsequent row-hit
		// accesses pipeline while earlier data is in flight.
		bk.busyUntil = uint64(start + xfer)
	}

	d.account(size, write)
	if !write {
		d.readLat.Add(done - now)
	}
	d.svcHist.Observe(done - now)
	if d.tracer != nil {
		rowClass := "rowMiss"
		if rowHit {
			rowClass = "rowHit"
		}
		d.tracer.Span(d.cfg.Name, rowClass, now, done)
	}
	return done
}

// account counts one transfer's op, bytes and energy, for demand and
// background traffic alike.
func (d *Device) account(size uint64, write bool) {
	if write {
		d.writes.Inc()
		d.bytesWritten.Add(size)
		d.energy.Add(float64(size*8) * d.cfg.WritePJPerBit)
		return
	}
	d.reads.Inc()
	d.bytesRead.Add(size)
	d.energy.Add(float64(size*8) * d.cfg.ReadPJPerBit)
}

// countRow counts one row-buffer outcome; a miss pays the activation energy.
func (d *Device) countRow(hit bool) {
	if hit {
		d.rowHits.Inc()
		return
	}
	d.rowMisses.Inc()
	d.energy.Add(d.cfg.ActivatePJ)
}

// accessDetailed times one demand access through the protocol engine,
// keeping the background-queue spill behaviour of the simple model; rowHit
// is false when any of its bursts missed the open row.
func (d *Device) accessDetailed(now uint64, addr uint64, size uint64, write bool) (done uint64, rowHit bool) {
	ch := &d.channels[(addr/256)%uint64(d.cfg.Channels)]
	d.drain(ch, now)
	start := now
	if ch.bgBytes > bgHighWater {
		start += uint64((ch.bgBytes - bgHighWater) / d.cfg.BytesPerCycle)
		ch.bgBytes = bgHighWater
	}
	d.queueHist.Observe(start - now)
	rowHit = true
	for off := uint64(0); off < size; off += 64 {
		_, last, hit := d.engine.Access(start, addr+off, write)
		if last > done {
			done = last
		}
		d.countRow(hit)
		rowHit = rowHit && hit
	}
	return done, rowHit
}
