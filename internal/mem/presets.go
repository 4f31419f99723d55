package mem

// Alternative slow-memory presets. Table I's NVM numbers (76.92 ns read,
// 230.77 ns write, 14/21 pJ/bit) sit between these two: hybrid-memory
// papers commonly evaluate against both an Optane-like device (faster
// reads, deeper write penalty) and a PCM-like device (slower overall,
// higher energy). They let users of this library explore how Baryon's
// benefit scales with the speed gap, which the paper identifies as the
// fundamental resource (slow-memory bandwidth).

// OptaneConfig returns an Optane-DCPMM-like slow memory: ~100 ns-class
// random reads, strong sequential bandwidth, expensive writes.
func OptaneConfig() Config {
	return Config{
		Name:     "Optane",
		Channels: 4,
		Banks:    8,
		// ~105 ns read = 336 CPU cycles at 3.2 GHz.
		RowHitLatency:  336,
		RowMissLatency: 336,
		// ~210 ns extra on writes.
		WriteLatency: 672,
		// ~8.5 GB/s per channel = 2.66 B/cycle.
		BytesPerCycle:  2.66,
		RowBufferBytes: 2048,
		ReadPJPerBit:   17.0,
		WritePJPerBit:  27.0,
	}
}

// PCMConfig returns a phase-change-memory-like slow memory following the
// classic PCM literature the paper cites [77]: reads a bit faster than the
// Table I NVM, writes much slower and more energy-hungry.
func PCMConfig() Config {
	return Config{
		Name:     "PCM",
		Channels: 4,
		Banks:    8,
		// ~60 ns array read.
		RowHitLatency:  192,
		RowMissLatency: 192,
		// ~350 ns write (SET/RESET pulses).
		WriteLatency: 1120,
		// 6.4 GB/s per channel = 2.0 B/cycle.
		BytesPerCycle:  2.0,
		RowBufferBytes: 2048,
		ReadPJPerBit:   12.0,
		WritePJPerBit:  49.0,
	}
}
