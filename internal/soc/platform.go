// Package soc models the heterogeneous big.LITTLE platform the paper
// evaluates on (Samsung Exynos 5422 in the Odroid-XU3). It is a
// cycle-approximate analytical simulator: a workload snippet's
// microarchitectural characteristics plus a hardware configuration map to
// execution time, energy and the Table I performance counters.
//
// The configuration space matches the paper's claim of 4940 unique control
// settings for the Exynos 5422: 13 little-cluster frequencies x 19
// big-cluster frequencies x 4 little-core counts x 5 big-core counts.
package soc

import (
	"fmt"

	"socrm/internal/counters"
	"socrm/internal/workload"
)

// OPP is an operating performance point: a frequency and its voltage.
type OPP struct {
	FreqMHz float64
	Volt    float64
}

// Config selects one hardware configuration of the platform.
type Config struct {
	LittleFreqIdx int // index into Platform.LittleOPPs
	BigFreqIdx    int // index into Platform.BigOPPs
	NLittle       int // active little cores, MinNLittle..MaxNLittle
	NBig          int // active big cores, MinNBig..MaxNBig
}

// Core-count knob domains. One little core must stay online for the OS,
// which is why MinNLittle is 1. Everything that clamps, enumerates or
// range-checks the core knobs derives from these four constants.
const (
	MinNLittle = 1
	MaxNLittle = 4
	MinNBig    = 0
	MaxNBig    = 4
)

// String renders the configuration compactly, e.g. "L1000/B1600 1L+4B".
func (c Config) String() string {
	return fmt.Sprintf("L%d/B%d %dL+%dB", c.LittleFreqIdx, c.BigFreqIdx, c.NLittle, c.NBig)
}

// Key packs the configuration into a compact comparable value.
func (c Config) Key() uint32 {
	return uint32(c.LittleFreqIdx) | uint32(c.BigFreqIdx)<<5 |
		uint32(c.NLittle)<<10 | uint32(c.NBig)<<13
}

// Result is the outcome of executing one snippet under one configuration.
type Result struct {
	Time     float64 // seconds
	Energy   float64 // joules
	AvgPower float64 // watts
	Counters counters.Snapshot
}

// Platform holds the calibrated parameters of the simulated SoC.
type Platform struct {
	LittleOPPs []OPP
	BigOPPs    []OPP

	// Microarchitecture.
	LittleCPIFactor  float64 // little-core CPI multiplier over big-core base
	MemLatencyNS     float64 // DRAM round trip seen by an L2 miss
	BrPenaltyBig     float64 // branch misprediction penalty, cycles
	BrPenaltyLittle  float64
	StallPowerFactor float64 // dynamic power floor while memory stalled

	// Power model.
	CeffBigNF      float64 // effective switched capacitance per big core, nF
	CeffLittleNF   float64
	IdleCoreFrac   float64 // dynamic power of an active-but-idle core
	LeakBigWV2     float64 // big-core leakage coefficient, W per V^2
	LeakLittleWV2  float64
	BaseLeakW      float64 // always-on chip leakage (uncore, memories)
	LeakTempCoeff  float64 // leakage growth per Kelvin above TempRef
	TempRef        float64 // Celsius
	MemBWWattPerGB float64 // uncore+DRAM-controller power per GB/s of traffic
	CacheLineB     float64

	// Runtime state.
	Temp float64 // Celsius, settable by a thermal loop
}

// NewXU3 returns the platform calibrated to resemble the Exynos 5422: four
// Cortex-A7 little cores (200-1400 MHz) and four Cortex-A15 big cores
// (200-2000 MHz) in 100 MHz steps — the paper's 4940-point config space.
func NewXU3() *Platform { return NewXU3WithStep(100) }

// NewXU3WithStep is NewXU3 with a configurable DVFS step size in MHz. The
// frequency ranges and the voltage/frequency lines are identical to the
// stock XU3 — only the lattice density changes, so a finer step is a strict
// refinement of the paper's config space. A 25 MHz step yields 71,540
// configurations (~14.5x the paper's 4940); the scale sweep mode uses this
// to stress the memoization layer. Steps that don't divide the range evenly
// still include the range endpoints' lower side (the loop is inclusive of
// any point <= max).
func NewXU3WithStep(stepMHz float64) *Platform {
	if stepMHz <= 0 {
		stepMHz = 100
	}
	p := &Platform{
		LittleCPIFactor:  1.9,
		MemLatencyNS:     80,
		BrPenaltyBig:     14,
		BrPenaltyLittle:  8,
		StallPowerFactor: 0.35,

		CeffBigNF:      0.65,
		CeffLittleNF:   0.15,
		IdleCoreFrac:   0.08,
		LeakBigWV2:     0.16,
		LeakLittleWV2:  0.035,
		BaseLeakW:      0.45,
		LeakTempCoeff:  0.012,
		TempRef:        45,
		MemBWWattPerGB: 0.11,
		CacheLineB:     64,

		Temp: 45,
	}
	for f := 200.0; f <= 1400; f += stepMHz {
		p.LittleOPPs = append(p.LittleOPPs, OPP{FreqMHz: f, Volt: 0.90 + (f-200)/1200*0.30})
	}
	for f := 200.0; f <= 2000; f += stepMHz {
		p.BigOPPs = append(p.BigOPPs, OPP{FreqMHz: f, Volt: 0.90 + (f-200)/1800*0.45})
	}
	return p
}

// NumConfigs returns the size of the configuration space (4940 for the XU3).
func (p *Platform) NumConfigs() int {
	return len(p.LittleOPPs) * len(p.BigOPPs) * 4 * 5
}

// Configs enumerates every valid configuration.
func (p *Platform) Configs() []Config {
	out := make([]Config, 0, p.NumConfigs())
	for lf := range p.LittleOPPs {
		for bf := range p.BigOPPs {
			for nl := 1; nl <= 4; nl++ {
				for nb := 0; nb <= 4; nb++ {
					out = append(out, Config{lf, bf, nl, nb})
				}
			}
		}
	}
	return out
}

// Valid reports whether c indexes existing OPPs and legal core counts.
func (p *Platform) Valid(c Config) bool {
	return c.LittleFreqIdx >= 0 && c.LittleFreqIdx < len(p.LittleOPPs) &&
		c.BigFreqIdx >= 0 && c.BigFreqIdx < len(p.BigOPPs) &&
		c.NLittle >= MinNLittle && c.NLittle <= MaxNLittle &&
		c.NBig >= MinNBig && c.NBig <= MaxNBig
}

// Clamp returns the nearest valid configuration to c.
func (p *Platform) Clamp(c Config) Config {
	c.LittleFreqIdx = clampInt(c.LittleFreqIdx, 0, len(p.LittleOPPs)-1)
	c.BigFreqIdx = clampInt(c.BigFreqIdx, 0, len(p.BigOPPs)-1)
	c.NLittle = clampInt(c.NLittle, MinNLittle, MaxNLittle)
	c.NBig = clampInt(c.NBig, MinNBig, MaxNBig)
	return c
}

// Neighborhood returns all valid configurations within the given L-inf
// radius of c in knob space, including c itself. The online-IL controller
// evaluates exactly this candidate set before every decision (Section
// IV-A3).
func (p *Platform) Neighborhood(c Config, radius int) []Config {
	return p.AppendNeighborhood(nil, c, radius)
}

// AppendNeighborhood appends the neighborhood of c to dst and returns the
// extended slice — the allocation-free form of Neighborhood for per-decision
// hot paths that reuse the candidate buffer. The candidate set is the cross
// product of the four clamped knob ranges, enumerated directly: each knob
// value appears exactly once per range, so the result is duplicate-free by
// construction and in the same order the clamp-and-dedup enumeration
// produced historically.
func (p *Platform) AppendNeighborhood(dst []Config, c Config, radius int) []Config {
	loLF := clampInt(c.LittleFreqIdx-radius, 0, len(p.LittleOPPs)-1)
	hiLF := clampInt(c.LittleFreqIdx+radius, 0, len(p.LittleOPPs)-1)
	loBF := clampInt(c.BigFreqIdx-radius, 0, len(p.BigOPPs)-1)
	hiBF := clampInt(c.BigFreqIdx+radius, 0, len(p.BigOPPs)-1)
	loNL := clampInt(c.NLittle-radius, MinNLittle, MaxNLittle)
	hiNL := clampInt(c.NLittle+radius, MinNLittle, MaxNLittle)
	loNB := clampInt(c.NBig-radius, MinNBig, MaxNBig)
	hiNB := clampInt(c.NBig+radius, MinNBig, MaxNBig)
	for lf := loLF; lf <= hiLF; lf++ {
		for bf := loBF; bf <= hiBF; bf++ {
			for nl := loNL; nl <= hiNL; nl++ {
				for nb := loNB; nb <= hiNB; nb++ {
					dst = append(dst, Config{lf, bf, nl, nb})
				}
			}
		}
	}
	return dst
}

// InNeighborhood reports whether n is a member of the candidate set
// AppendNeighborhood(c, radius) enumerates. n must be a valid configuration.
func (p *Platform) InNeighborhood(c, n Config, radius int) bool {
	in := func(v, cv, lo, hi int) bool {
		return v >= clampInt(cv-radius, lo, hi) && v <= clampInt(cv+radius, lo, hi)
	}
	return in(n.LittleFreqIdx, c.LittleFreqIdx, 0, len(p.LittleOPPs)-1) &&
		in(n.BigFreqIdx, c.BigFreqIdx, 0, len(p.BigOPPs)-1) &&
		in(n.NLittle, c.NLittle, MinNLittle, MaxNLittle) &&
		in(n.NBig, c.NBig, MinNBig, MaxNBig)
}

// Features encodes a configuration as normalized policy inputs in [0,1].
func (p *Platform) Features(c Config) []float64 {
	return p.AppendFeatures(make([]float64, 0, NumConfigFeatures), c)
}

// NumConfigFeatures is the length of Features.
const NumConfigFeatures = 4

// AppendFeatures appends the normalized knob features of c to dst and
// returns the extended slice — the allocation-free form of Features.
func (p *Platform) AppendFeatures(dst []float64, c Config) []float64 {
	return append(dst,
		float64(c.LittleFreqIdx)/float64(len(p.LittleOPPs)-1),
		float64(c.BigFreqIdx)/float64(len(p.BigOPPs)-1),
		(float64(c.NLittle)-1)/3,
		float64(c.NBig)/4,
	)
}

// FromFeatures inverts Features, snapping to the nearest valid knob values.
func (p *Platform) FromFeatures(f []float64) Config {
	if len(f) != 4 {
		panic("soc: config features must have length 4")
	}
	return p.Clamp(Config{
		LittleFreqIdx: int(f[0]*float64(len(p.LittleOPPs)-1) + 0.5),
		BigFreqIdx:    int(f[1]*float64(len(p.BigOPPs)-1) + 0.5),
		NLittle:       int(f[2]*3+0.5) + 1,
		NBig:          int(f[3]*4 + 0.5),
	})
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// MaxPerfConfig returns the all-cores-max-frequency configuration.
func (p *Platform) MaxPerfConfig() Config {
	return Config{LittleFreqIdx: len(p.LittleOPPs) - 1, BigFreqIdx: len(p.BigOPPs) - 1, NLittle: 4, NBig: 4}
}

// MinPowerConfig returns the single-little-core minimum-frequency
// configuration.
func (p *Platform) MinPowerConfig() Config {
	return Config{LittleFreqIdx: 0, BigFreqIdx: 0, NLittle: 1, NBig: 0}
}

// Execute runs one snippet under configuration c and returns time, energy
// and the synthesized Table I counters.
//
// The performance model is a memory-wall CPI decomposition: stall cycles per
// instruction grow linearly with core frequency (a fixed-nanosecond DRAM
// latency costs more cycles at higher f), which is what makes the
// energy-optimal frequency workload dependent. The model's terms live in
// sweep.go, shared with Sweep, so both compute the same bits.
func (p *Platform) Execute(s workload.Snippet, c Config) (r Result) {
	if !p.Valid(c) {
		c = p.Clamp(c)
	}
	lo := p.LittleOPPs[c.LittleFreqIdx]
	bo := p.BigOPPs[c.BigFreqIdx]
	st := p.snippetTerms(&s)
	big := p.bigTerms(st, bo)
	little := p.littleTerms(st, lo)
	usedBig, usedLittle := Placement(s.Threads, c)
	leak := p.leakage(p.bigLeak(c.NBig, bo), p.littleLeak(c.NLittle, lo), p.tempFactor())
	bigIPS, bigDyn := p.bigLoad(big, c.NBig, usedBig)
	t, power := p.timePower(&s, st, bigIPS, bigDyn, little, c.NLittle, usedLittle, leak)

	// Fill the named result field by field: a Snapshot built apart and
	// copied in goes through wide stack moves that stall on store
	// forwarding, a fifth of Execute's cost.
	r.Time, r.Energy, r.AvgPower = t, power*t, power
	k := &r.Counters
	k.InstructionsRetired = s.Instructions
	k.CPUCycles = t * (float64(usedBig)*big.fGHz + float64(usedLittle)*little.fGHz) * 1e9
	k.BranchMissPredPC = s.Instructions * s.BranchMPKI / 1000 / float64(usedBig+usedLittle)
	k.L2Misses = st.l2Misses
	k.DataMemAccess = s.Instructions * s.MemIntensity
	k.NoncacheExtMemReq = st.l2Misses * 0.3
	k.LittleUtil = utilOf(usedLittle, c.NLittle)
	k.BigUtil = utilOf(usedBig, c.NBig)
	k.ChipPower = power
	return r
}

// Placement models the HMP scheduler: runnable threads fill big cores
// first, spilling the remainder onto little cores; at least one little-core
// slot is always available (the OS keeps one online). It is exported so
// that the online performance models can reason about candidate
// configurations the same way the platform schedules them.
func Placement(threads int, c Config) (usedBig, usedLittle int) {
	usedBig = minInt(threads, c.NBig)
	usedLittle = minInt(threads-usedBig, c.NLittle)
	if usedBig == 0 && usedLittle == 0 {
		usedLittle = 1
	}
	return usedBig, usedLittle
}

func utilOf(used, active int) float64 {
	if active == 0 {
		return 0
	}
	return float64(used) / float64(active)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
