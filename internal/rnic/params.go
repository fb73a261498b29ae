package rnic

import "rdmasem/internal/sim"

// The RNIC model's costs are constants, calibrated against the paper's
// ConnectX-3 (MT27500, dual-port 40 Gbps) observations:
//
//   - Figure 1: WRITE/READ base latency 1.16/2.00 us, small-payload
//     throughput ~4.7/4.2 MOPS on one QP, latency knee past 2 KB;
//   - Figure 6: per-port peaks near 8 MOPS for sequential WRITE streams,
//     ~2x sequential-over-random gap, no gap when the registered region
//     fits in SRAM (<= 4 MB);
//   - Section II-B2: ~60% degradation with 10x MRs, ~50% with 3x clients;
//   - Section III-E: atomic verbs at 2.2-2.5 MOPS per port.
//
// The few values an experiment varies are Params fields instead.

// CPU <-> RNIC PCIe path.
const (
	wqeFetch      sim.Duration = 120   // DMA fetch of the first WQE of a doorbell
	wqeFetchNext  sim.Duration = 40    // each additional WQE in a doorbell list
	sgeFetch      sim.Duration = 60    // per-SGE gather/scatter DMA descriptor cost
	inlinePerByte sim.Duration = 1     // extra MMIO cost per inlined payload byte
	pcieBandwidth              = 7.9e9 // bytes/s of the host PCIe link (PCIe 3.0 x8 effective)
	pcieOverhead  sim.Duration = 20    // per-DMA-transaction TLP overhead

	// PCIeReadLatency is the host-DRAM DMA read latency a responder pays
	// for READ and atomic verbs.
	PCIeReadLatency sim.Duration = 800
)

// Port engine service times per work request. The verbs layer charges them
// to the per-QP pipeline and the port execution unit.
const (
	ExecWrite  sim.Duration = 125 // execution unit, WRITE: 8 MOPS per port
	ExecRead   sim.Duration = 140 // execution unit, READ and atomics
	ExecSend   sim.Duration = 160 // execution unit, SEND
	QPWrite    sim.Duration = 210 // per-QP pipeline, WRITE/SEND/atomics: 4.76 MOPS per QP (Fig 1)
	QPRead     sim.Duration = 238 // per-QP pipeline, READ: 4.2 MOPS per QP (Fig 1)
	atomicUnit sim.Duration = 410 // per-port atomic unit: 2.44 MOPS per port

	// RespWrite is the responder's in-bound WRITE (and SEND) handling: a
	// small-write cap of ~8 MOPS per port, like the outbound side.
	RespWrite sim.Duration = 125
	// RespRead is the responder's in-bound READ handling (DMA read and
	// response).
	RespRead sim.Duration = 170
)

// SRAM metadata cache miss costs: the added wire-visible latency and the
// added execution-unit occupancy of one miss.
const (
	translationMissLat sim.Duration = 350 // per missing page
	translationMissSvc sim.Duration = 300
	qpMissLat          sim.Duration = 400
	qpMissSvc          sim.Duration = 110
	mrMissLat          sim.Duration = 700
	mrMissSvc          sim.Duration = 90
)

// Ports is the RNIC's physical port count (the paper's dual-port NIC).
const Ports = 2

// Params holds what a cluster may set on the RNIC: the MMIO cost and SRAM
// cache capacities the ablation and qpsweep experiments vary.
type Params struct {
	MMIOCost sim.Duration // one CPU-generated MMIO doorbell write

	// SRAM metadata cache capacities.
	TranslationEntries int // page-translation entries (4 KB pages)
	QPCacheEntries     int // QP contexts resident in SRAM
	MRCacheEntries     int // MR records resident in SRAM
}

// DefaultParams returns the ConnectX-3 calibration described above.
func DefaultParams() Params {
	return Params{
		MMIOCost:           250,
		TranslationEntries: 1024, // 4 MB of 4 KB pages (Fig 6d crossover)
		QPCacheEntries:     96,
		MRCacheEntries:     24,
	}
}

// Validate checks the parameters for usability.
func (p Params) Validate() error {
	if p.MMIOCost < 0 {
		return errBadParams("MMIOCost must be nonnegative")
	}
	if p.TranslationEntries < 0 || p.QPCacheEntries < 0 || p.MRCacheEntries < 0 {
		return errBadParams("cache capacities must be nonnegative")
	}
	return nil
}

type errBadParams string

func (e errBadParams) Error() string { return "rnic: " + string(e) }
