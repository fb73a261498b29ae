package rnic

import "rdmasem/internal/sim"

// Params captures every tunable of the RNIC model. The defaults are
// calibrated against the paper's ConnectX-3 (MT27500, dual-port 40 Gbps)
// observations:
//
//   - Figure 1: WRITE/READ base latency 1.16/2.00 us, small-payload
//     throughput ~4.7/4.2 MOPS on one QP, latency knee past 2 KB;
//   - Figure 6: per-port peaks near 8 MOPS for sequential WRITE streams,
//     ~2x sequential-over-random gap, no gap when the registered region
//     fits in SRAM (<= 4 MB);
//   - Section II-B2: ~60% degradation with 10x MRs, ~50% with 3x clients;
//   - Section III-E: atomic verbs at 2.2-2.5 MOPS per port.
type Params struct {
	Ports int // physical ports (paper NIC: dual port)

	// CPU <-> RNIC PCIe path.
	MMIOCost        sim.Duration // one CPU-generated MMIO doorbell write
	WQEFetch        sim.Duration // DMA fetch of the first WQE of a doorbell
	WQEFetchNext    sim.Duration // each additional WQE in a doorbell list
	SGEFetch        sim.Duration // per-SGE gather/scatter DMA descriptor cost
	InlinePerByte   sim.Duration // extra MMIO cost per inlined payload byte
	PCIeBandwidth   float64      // bytes/s of the host PCIe link
	PCIeOverhead    sim.Duration // per-DMA-transaction TLP overhead
	PCIeReadLatency sim.Duration // host-DRAM DMA read latency (READ/atomics)

	// Port engines.
	ExecWrite  sim.Duration // per-WR execution-unit service, WRITE (per port)
	ExecRead   sim.Duration // per-WR execution-unit service, READ (per port)
	ExecSend   sim.Duration // per-WR execution-unit service, SEND (per port)
	QPWrite    sim.Duration // per-QP pipeline service, WRITE (Fig 1: 4.7 MOPS)
	QPRead     sim.Duration // per-QP pipeline service, READ (Fig 1: 4.2 MOPS)
	AtomicUnit sim.Duration // per-port atomic unit service (2.2-2.5 MOPS)

	// Responder-side processing.
	RespWrite sim.Duration // in-bound WRITE handling
	RespRead  sim.Duration // in-bound READ handling (DMA read + response)

	// SRAM metadata caches.
	TranslationEntries int          // page-translation entries (4 KB pages)
	TranslationMissLat sim.Duration // added latency per missing page
	TranslationMissSvc sim.Duration // added execution-unit occupancy per miss
	QPCacheEntries     int          // QP contexts resident in SRAM
	QPMissLat          sim.Duration
	QPMissSvc          sim.Duration
	MRCacheEntries     int // MR records resident in SRAM
	MRMissLat          sim.Duration
	MRMissSvc          sim.Duration
}

// DefaultParams returns the ConnectX-3 calibration described above.
func DefaultParams() Params {
	return Params{
		Ports: 2,

		MMIOCost:        250,
		WQEFetch:        120,
		WQEFetchNext:    40,
		SGEFetch:        60,
		InlinePerByte:   1,
		PCIeBandwidth:   7.9e9, // PCIe 3.0 x8 effective
		PCIeOverhead:    20,
		PCIeReadLatency: 800,

		ExecWrite:  125, // 8 MOPS per port
		ExecRead:   140,
		ExecSend:   160,
		QPWrite:    210, // 4.76 MOPS per QP
		QPRead:     238, // 4.2 MOPS per QP
		AtomicUnit: 410, // 2.44 MOPS per port

		RespWrite: 125, // inbound small-write cap ~8 MOPS/port, like outbound
		RespRead:  170,

		TranslationEntries: 1024, // 4 MB of 4 KB pages (Fig 6d crossover)
		TranslationMissLat: 350,
		TranslationMissSvc: 300,
		QPCacheEntries:     96,
		QPMissLat:          400,
		QPMissSvc:          110,
		MRCacheEntries:     24,
		MRMissLat:          700,
		MRMissSvc:          90,
	}
}

// Validate checks the parameters for usability.
func (p Params) Validate() error {
	if p.Ports < 1 {
		return errBadParams("ports must be >= 1")
	}
	if p.PCIeBandwidth <= 0 {
		return errBadParams("PCIe bandwidth must be positive")
	}
	if p.ExecWrite <= 0 || p.ExecRead <= 0 || p.ExecSend <= 0 || p.QPWrite <= 0 || p.QPRead <= 0 ||
		p.AtomicUnit <= 0 || p.RespWrite <= 0 || p.RespRead <= 0 {
		return errBadParams("engine service times must be positive")
	}
	for _, f := range []struct {
		name string
		d    sim.Duration
	}{
		{"MMIOCost", p.MMIOCost}, {"WQEFetch", p.WQEFetch}, {"WQEFetchNext", p.WQEFetchNext},
		{"SGEFetch", p.SGEFetch}, {"InlinePerByte", p.InlinePerByte}, {"PCIeOverhead", p.PCIeOverhead},
		{"PCIeReadLatency", p.PCIeReadLatency}, {"TranslationMissLat", p.TranslationMissLat},
		{"TranslationMissSvc", p.TranslationMissSvc}, {"QPMissLat", p.QPMissLat},
		{"QPMissSvc", p.QPMissSvc}, {"MRMissLat", p.MRMissLat}, {"MRMissSvc", p.MRMissSvc},
	} {
		if f.d < 0 {
			return errBadParams(f.name + " must be nonnegative")
		}
	}
	if p.TranslationEntries < 0 || p.QPCacheEntries < 0 || p.MRCacheEntries < 0 {
		return errBadParams("cache capacities must be nonnegative")
	}
	return nil
}

type errBadParams string

func (e errBadParams) Error() string { return "rnic: " + string(e) }
