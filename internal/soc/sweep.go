package soc

import "socrm/internal/workload"

// The power/performance model, split by what each term depends on so that
// Sweep can hoist everything but the per-configuration time and energy out
// of its loop nest. Execute composes the same helpers for one
// configuration; every expression keeps its original operand order, so
// both paths produce the same bits.

// snippetModel holds the configuration-independent terms of one snippet.
// It and coreModel stay within four float64s so that the compiler keeps
// them in registers: Execute is short enough that a trip through memory
// shows up in its cost.
type snippetModel struct {
	memLatency   float64 // L2 misses per instruction x DRAM latency, ns
	l2Misses     float64
	retireBig    float64 // big-core CPI without memory stalls
	retireLittle float64
}

func (p *Platform) snippetTerms(s *workload.Snippet) snippetModel {
	memPerInstr := s.MemIntensity * s.L2MissRate // L2 misses per instruction
	return snippetModel{
		memLatency:   memPerInstr * p.MemLatencyNS,
		l2Misses:     s.Instructions * memPerInstr,
		retireBig:    s.BaseCPI/s.ILPBigBoost + s.BranchMPKI/1000*p.BrPenaltyBig,
		retireLittle: s.BaseCPI*p.LittleCPIFactor + s.BranchMPKI/1000*p.BrPenaltyLittle,
	}
}

// coreModel holds the terms of one core type at one OPP for one snippet.
type coreModel struct {
	fGHz  float64
	ips   float64 // instructions/second per busy core
	act   float64 // activity factor of a busy core
	pCore float64 // dynamic power at full activity, W
}

func (p *Platform) bigTerms(st snippetModel, o OPP) coreModel {
	return p.coreTerms(st, o, st.retireBig, p.CeffBigNF)
}

func (p *Platform) littleTerms(st snippetModel, o OPP) coreModel {
	return p.coreTerms(st, o, st.retireLittle, p.CeffLittleNF)
}

// coreTerms applies the memory-wall CPI decomposition at one OPP: stall
// cycles per instruction grow linearly with frequency, and a
// memory-stalled pipeline burns less dynamic power than a retiring one.
func (p *Platform) coreTerms(st snippetModel, o OPP, retire, ceffNF float64) coreModel {
	f := o.FreqMHz / 1000 // GHz
	cpi := retire + st.memLatency*f
	return coreModel{
		fGHz:  f,
		ips:   f * 1e9 / cpi,
		act:   p.StallPowerFactor + (1-p.StallPowerFactor)*retire/cpi,
		pCore: ceffNF * o.Volt * o.Volt * f,
	}
}

// Leakage grows with voltage squared and temperature: the chip floor plus
// the big cores, plus the little cores, times the temperature factor.
func (p *Platform) bigLeak(n int, o OPP) float64 {
	return p.BaseLeakW + float64(n)*p.LeakBigWV2*o.Volt*o.Volt
}

func (p *Platform) littleLeak(n int, o OPP) float64 {
	return float64(n) * p.LeakLittleWV2 * o.Volt * o.Volt
}

func (p *Platform) tempFactor() float64 {
	tempFac := 1 + p.LeakTempCoeff*(p.Temp-p.TempRef)
	if tempFac < 0.5 {
		tempFac = 0.5
	}
	return tempFac
}

func (p *Platform) leakage(bigLeak, littleLeak, tempFac float64) float64 {
	return (bigLeak + littleLeak) * tempFac
}

// bigLoad returns the throughput and dynamic power of nBig active big
// cores, usedBig of them busy: busy cores burn dynamic power at their
// activity level, idle active cores at the clock-gated floor. Both depend
// on the big core count alone, so Sweep computes them once per OPP pair.
func (p *Platform) bigLoad(big coreModel, nBig, usedBig int) (ips, dyn float64) {
	return float64(usedBig) * big.ips,
		float64(usedBig)*big.pCore*big.act + float64(nBig-usedBig)*big.pCore*p.IdleCoreFrac
}

// timePower returns the execution time and average power of the snippet
// given the big cluster's load, nLittle active little cores with
// usedLittle of them busy, and the leakage. The uncore power is
// proportional to external bandwidth.
func (p *Platform) timePower(s *workload.Snippet, st snippetModel, bigIPS, bigDyn float64, little coreModel, nLittle, usedLittle int, leak float64) (t, power float64) {
	t = s.Instructions / (bigIPS + float64(usedLittle)*little.ips)
	dyn := bigDyn +
		float64(usedLittle)*little.pCore*little.act +
		float64(nLittle-usedLittle)*little.pCore*p.IdleCoreFrac
	memPower := p.MemBWWattPerGB * (st.l2Misses * p.CacheLineB / t / 1e9)
	return t, dyn + leak + memPower
}

// NumCoreSettings is the number of (little, big) core-count settings per
// OPP pair: the size of one SweepBlock.
const NumCoreSettings = (MaxNLittle - MinNLittle + 1) * (MaxNBig - MinNBig + 1)

// SweepBlock holds the time and energy of every core-count setting at one
// (little, big) OPP pair, in Configs order.
type SweepBlock struct {
	LittleFreqIdx, BigFreqIdx int
	Time, Energy              [NumCoreSettings]float64
}

// Config returns the configuration of entry i.
func (b *SweepBlock) Config(i int) Config {
	const nBig = MaxNBig - MinNBig + 1
	return Config{b.LittleFreqIdx, b.BigFreqIdx, MinNLittle + i/nBig, MinNBig + i%nBig}
}

// Sweep calls visit once per OPP pair, in Configs order, with the time and
// energy Execute reports for each configuration, bit for bit. It is the
// Oracle's exhaustive search. The snippet terms are computed once, the
// per-OPP terms once per little or big OPP, and the leakage and the big
// cluster's load once per (core count, OPP), leaving only time and energy
// per configuration. Handing results over a block at a time keeps the
// per-configuration loop free of calls. It allocates nothing.
func (p *Platform) Sweep(s workload.Snippet, visit func(b SweepBlock)) {
	st := p.snippetTerms(&s)
	tempFac := p.tempFactor()
	var b SweepBlock
	var bigLeak, bigIPS, bigDyn [MaxNBig + 1]float64
	for lf, lo := range p.LittleOPPs {
		little := p.littleTerms(st, lo)
		for bf, bo := range p.BigOPPs {
			big := p.bigTerms(st, bo)
			for nb := MinNBig; nb <= MaxNBig; nb++ {
				// The busy big cores do not depend on the little core count.
				usedBig, _ := Placement(s.Threads, Config{NLittle: MinNLittle, NBig: nb})
				bigIPS[nb], bigDyn[nb] = p.bigLoad(big, nb, usedBig)
				bigLeak[nb] = p.bigLeak(nb, bo)
			}
			b.LittleFreqIdx, b.BigFreqIdx = lf, bf
			i := 0
			for nl := MinNLittle; nl <= MaxNLittle; nl++ {
				littleLeak := p.littleLeak(nl, lo)
				for nb := MinNBig; nb <= MaxNBig; nb++ {
					_, usedLittle := Placement(s.Threads, Config{NLittle: nl, NBig: nb})
					leak := p.leakage(bigLeak[nb], littleLeak, tempFac)
					t, power := p.timePower(&s, st, bigIPS[nb], bigDyn[nb], little, nl, usedLittle, leak)
					b.Time[i], b.Energy[i] = t, power*t
					i++
				}
			}
			visit(b)
		}
	}
}
