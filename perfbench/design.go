package main

import (
	"fmt"

	"mopac/internal/addrmap"
	"mopac/internal/dram"
	"mopac/internal/mc"
	"mopac/internal/mitigation"
	"mopac/internal/security"
	"mopac/internal/sim"
	"mopac/internal/timing"
)

// machine is one subchannel's hardware for a design, rebuilt from the
// public layer constructors with the values sim.NewSystem derives: the
// replays construct devices and controllers from it, and the fidelity
// checks prove the rebuild matches the integrated run.
type machine struct {
	geo      addrmap.Geometry
	timing   timing.Params
	mc       mc.Config
	chips    int
	rfm      int
	newGuard func(chip, bank int) dram.BankGuard // nil = unprotected
}

// machineFor derives the machine for the designs the workloads use.
func machineFor(c sim.Config) (machine, error) {
	trh := c.TRH
	if trh == 0 {
		trh = 500
	}
	m := machine{
		geo:   addrmap.Default(),
		chips: 1,
		rfm:   c.RFMLevel,
		mc: mc.Config{
			Policy:           c.Policy,
			TimeoutNs:        c.TimeoutNs,
			RFMLevel:         c.RFMLevel,
			MaxPostponedREFs: c.MaxPostponedREFs,
			Seed:             c.Seed ^ 0xc0ffee,
		},
	}
	var params security.Params
	factory := false
	switch c.Design {
	case sim.DesignBaseline:
		m.timing = timing.DDR5()
	case sim.DesignPRAC:
		m.timing = timing.PRAC()
		m.mc.CUAlways = true
		params, factory = security.DeriveWithP(security.VariantPRAC, trh, 1), true
	case sim.DesignQPRAC:
		m.timing = timing.PRAC()
		m.mc.CUAlways = true
		qcfg := mitigation.QPRACFromParams(security.DeriveWithP(security.VariantPRAC, trh, 1), m.geo.Rows)
		m.newGuard = func(int, int) dram.BankGuard { return mitigation.NewQPRAC(qcfg) }
	case sim.DesignMoPACC:
		m.timing = timing.MoPACC()
		params, factory = security.DeriveMoPACC(trh), true
		m.mc.CUProbInv = params.UpdateWeight()
	case sim.DesignMoPACD:
		m.timing = timing.MoPACD()
		params, factory = security.DeriveMoPACD(trh), true
		m.chips = c.Chips
		if m.chips == 0 {
			m.chips = 4
		}
	default:
		return machine{}, fmt.Errorf("no replay machine for design %s", c.Design)
	}
	m.mc.Timing = m.timing
	if factory {
		ng, err := mitigation.NewFactory(mitigation.Options{Params: params, Rows: m.geo.Rows, Seed: c.Seed})
		if err != nil {
			return machine{}, err
		}
		m.newGuard = ng
	}
	return m, nil
}

// guardStats returns a guard's own counters (nil for guard types that
// keep none), for comparing replayed guards with integrated ones.
func guardStats(g dram.BankGuard) any {
	switch g := g.(type) {
	case *timedGuard:
		return guardStats(g.g)
	case *mitigation.MOAT:
		return g.Stats()
	case *mitigation.MoPACD:
		return g.Stats()
	case *mitigation.QPRAC:
		return g.Stats()
	}
	return nil
}
