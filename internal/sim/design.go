package sim

import (
	"fmt"
	"sort"
	"strings"

	"mopac/internal/dram"
	"mopac/internal/mc"
	"mopac/internal/mitigation"
	"mopac/internal/security"
	"mopac/internal/telemetry"
	"mopac/internal/timing"
)

// Design selects the memory-system protection configuration.
type Design int

// The evaluated designs. The values index the designs table and are
// encoded in Config.Hash, so they must never be renumbered.
const (
	// DesignBaseline is unprotected DDR5 with baseline timings.
	DesignBaseline Design = iota
	// DesignPRAC is PRAC+ABO with MOAT and inflated timings.
	DesignPRAC
	// DesignMoPACC is memory-controller-side MoPAC.
	DesignMoPACC
	// DesignMoPACD is in-DRAM MoPAC.
	DesignMoPACD
	// DesignTRR is the broken DDR4-era tracker (baseline timings).
	DesignTRR
	// DesignMINT is the low-cost MINT tracker of §9.2 (baseline
	// timings, one mitigation per REF, no ABO).
	DesignMINT
	// DesignPrIDE is the low-cost PrIDE tracker of §9.2.
	DesignPrIDE
	// DesignChronos is the §9.1 Chronos alternative: counter updates in
	// a dedicated subarray (baseline row timings, doubled tFAW).
	DesignChronos
	// DesignQPRAC is the §9.1 QPRAC alternative: PRAC timings with the
	// priority-queue mitigation service instead of MOAT.
	DesignQPRAC
)

// guardFactory builds one subchannel's guard factory from the run's
// config, its derived security parameters, the rows per bank and that
// subchannel's mitigation probe view (nil when tracing is off).
type guardFactory func(c Config, p security.Params, rows int, trc *telemetry.GuardTracks) (func(chip, bank int) dram.BankGuard, error)

// designSpec is everything NewSystem needs to know about one design.
type designSpec struct {
	// name is the display name; lowercased, it is the CLI/JSON name.
	name string
	// setup derives the security parameters and returns the controller
	// config m with its timing set and design-specific fields filled.
	// m travels by value so NewSystem's copy stays on the stack.
	setup func(c Config, m mc.Config) (security.Params, mc.Config)
	// guard builds the in-DRAM guards; nil leaves the device
	// unprotected.
	guard guardFactory
	// perChip replicates guard state on every chip (Config.Chips) and
	// makes CounterUpdatesPer100ACTs count SRQ drains per chip.
	perChip bool
}

// designs is the design registry, indexed by Design. A new design is
// one guard implementation plus one entry here.
var designs = [...]designSpec{
	DesignBaseline: {name: "Baseline", setup: ddr5Setup},
	DesignPRAC:     {name: "PRAC", setup: pracSetup(timing.PRAC), guard: factoryGuard},
	DesignMoPACC:   {name: "MoPAC-C", setup: mopacCSetup, guard: factoryGuard},
	DesignMoPACD:   {name: "MoPAC-D", setup: mopacDSetup, guard: factoryGuard, perChip: true},
	DesignTRR:      {name: "TRR", setup: ddr5Setup, guard: trrGuard},
	DesignMINT:     {name: "MINT", setup: ddr5Setup, guard: mintGuard},
	DesignPrIDE:    {name: "PrIDE", setup: ddr5Setup, guard: prideGuard},
	// Chronos keeps deterministic counting (MOAT semantics) with
	// baseline row timings; the doubled tFAW carries the cost.
	DesignChronos: {name: "Chronos", setup: pracSetup(timing.Chronos), guard: factoryGuard},
	// QPRAC shares PRAC's timings and derived parameters; only the
	// in-DRAM mitigation engine differs.
	DesignQPRAC: {name: "QPRAC", setup: pracSetup(timing.PRAC), guard: qpracGuard},
}

// known reports whether d has a registry entry.
func (d Design) known() bool { return d >= 0 && int(d) < len(designs) }

// String implements fmt.Stringer.
func (d Design) String() string {
	if !d.known() {
		return fmt.Sprintf("Design(%d)", int(d))
	}
	return designs[d].name
}

// ParseDesign resolves a design name (case-insensitive) to its Design.
// It is the one name registry shared by the CLIs, the batch file
// format and the HTTP service.
func ParseDesign(name string) (Design, error) {
	for d, s := range designs {
		if strings.EqualFold(s.name, name) {
			return Design(d), nil
		}
	}
	return 0, fmt.Errorf("sim: unknown design %q", name)
}

// Designs enumerates every design name, lowercased and sorted — the
// discoverable face of the registry (`-list-designs` on the CLIs).
func Designs() []string {
	out := make([]string, len(designs))
	for d, s := range designs {
		out[d] = strings.ToLower(s.name)
	}
	sort.Strings(out)
	return out
}

// ddr5Setup is the unprotected and REF-shadow trackers' setup: baseline
// timings, no derived parameters.
func ddr5Setup(_ Config, m mc.Config) (security.Params, mc.Config) {
	m.Timing = timing.DDR5()
	return security.Params{}, m
}

// pracSetup is the setup of the designs that update a counter on every
// activation (PRAC, QPRAC, Chronos); they differ only in timing.
func pracSetup(tp func() timing.Params) func(Config, mc.Config) (security.Params, mc.Config) {
	return func(c Config, m mc.Config) (security.Params, mc.Config) {
		m.Timing = tp()
		m.CUAlways = true
		return security.DeriveWithP(security.VariantPRAC, c.TRH, 1), m
	}
}

func mopacCSetup(c Config, m mc.Config) (security.Params, mc.Config) {
	params := security.DeriveMoPACC(c.TRH)
	if c.PInvOverride > 0 {
		params = security.DeriveWithP(security.VariantMoPACC, c.TRH, 1/float64(c.PInvOverride))
	}
	if c.RowPress {
		params = security.DeriveRowPress(security.VariantMoPACC, c.TRH)
		m.RowPressCapNs = security.RowPressMaxOpenNs
	}
	m.Timing = timing.MoPACC()
	m.CUProbInv = params.UpdateWeight()
	return params, m
}

func mopacDSetup(c Config, m mc.Config) (security.Params, mc.Config) {
	params := security.DeriveMoPACD(c.TRH)
	if c.PInvOverride > 0 {
		params = security.DeriveWithP(security.VariantMoPACD, c.TRH, 1/float64(c.PInvOverride))
	}
	switch {
	case c.RowPress:
		params = security.DeriveRowPress(security.VariantMoPACD, c.TRH)
	case c.NUP:
		params = security.DeriveNUP(c.TRH)
	}
	m.Timing = timing.MoPACD()
	return params, m
}

// factoryGuard builds the MOAT (PRAC, MoPAC-C, Chronos) and MoPAC-D
// guards. NewFactory picks the family from the parameters' variant and
// ignores the MoPAC-D knobs for MOAT.
func factoryGuard(c Config, p security.Params, rows int, trc *telemetry.GuardTracks) (func(chip, bank int) dram.BankGuard, error) {
	return mitigation.NewFactory(mitigation.Options{
		Params:     p,
		Rows:       rows,
		NUP:        c.NUP,
		RowPress:   c.RowPress,
		Seed:       c.Seed,
		SRQSize:    c.SRQSize,
		DrainOnREF: c.DrainOnREF,
		Trace:      trc,
	})
}

func qpracGuard(_ Config, p security.Params, rows int, _ *telemetry.GuardTracks) (func(chip, bank int) dram.BankGuard, error) {
	qcfg := mitigation.QPRACFromParams(p, rows)
	return func(chip, bank int) dram.BankGuard {
		return mitigation.NewQPRAC(qcfg)
	}, nil
}

func trrGuard(_ Config, _ security.Params, rows int, _ *telemetry.GuardTracks) (func(chip, bank int) dram.BankGuard, error) {
	return func(chip, bank int) dram.BankGuard {
		return mitigation.NewTRR(mitigation.TRRConfig{Entries: 16, MitigatePerREFs: 4, Rows: rows})
	}, nil
}

func mintGuard(c Config, _ security.Params, rows int, _ *telemetry.GuardTracks) (func(chip, bank int) dram.BankGuard, error) {
	seed := c.Seed
	return func(chip, bank int) dram.BankGuard {
		return mitigation.NewMINT(mitigation.MINTConfig{
			Window: 84, Rows: rows,
			Seed: seed ^ uint64(bank)<<8 ^ uint64(chip)<<32 ^ 0x6d1,
		})
	}, nil
}

func prideGuard(c Config, _ security.Params, rows int, _ *telemetry.GuardTracks) (func(chip, bank int) dram.BankGuard, error) {
	seed := c.Seed
	return func(chip, bank int) dram.BankGuard {
		return mitigation.NewPrIDE(mitigation.PrIDEConfig{
			InvP: 84, QueueSize: 2, Rows: rows,
			Seed: seed ^ uint64(bank)<<8 ^ uint64(chip)<<32 ^ 0x9d1,
		})
	}, nil
}
