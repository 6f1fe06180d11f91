// Package config loads and validates JSON run configurations — the
// analogue of the paper artifact's config_dramsim3/prac/make_ini.py
// generator. A file describes one or more runs (design x threshold x
// workload sweeps) that expand into concrete sim.Config values.
package config

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"mopac/internal/mc"
	"mopac/internal/sim"
	"mopac/internal/workload"
)

// Knobs are the run knobs shared by batch-file runs and service job
// bodies. Both embed them, and JSON flattens embedded structs, so the
// two formats spell every knob alike.
type Knobs struct {
	// InstrPerCore sizes each run (default 1e6).
	InstrPerCore int64 `json:"instr_per_core,omitempty"`
	// Cores is the core count (default 8).
	Cores int `json:"cores,omitempty"`
	// Seed seeds the run (0 selects 1).
	Seed uint64 `json:"seed,omitempty"`
	// NUP / RowPress toggle the design options.
	NUP      bool `json:"nup,omitempty"`
	RowPress bool `json:"rowpress,omitempty"`
	// Chips, SRQSize, DrainOnREF, RFMLevel, MaxPostponedREFs tune the
	// MoPAC-D and protocol parameters; nil DrainOnREF keeps the derived
	// rate.
	Chips            int  `json:"chips,omitempty"`
	SRQSize          int  `json:"srq_size,omitempty"`
	DrainOnREF       *int `json:"drain_on_ref,omitempty"`
	RFMLevel         int  `json:"rfm_level,omitempty"`
	MaxPostponedREFs int  `json:"max_postponed_refs,omitempty"`
	// PInvOverride, when > 0, fixes the MoPAC update probability at
	// 1/PInvOverride (the §5.4 p-selection sweep).
	PInvOverride int `json:"pinv_override,omitempty"`
	// Policy: open | close | timeout (with TimeoutNs).
	Policy    string `json:"policy,omitempty"`
	TimeoutNs int64  `json:"timeout_ns,omitempty"`
	// Oracle attaches the security oracle.
	Oracle bool `json:"oracle,omitempty"`
}

// Config maps the knobs onto a validated run of design d at threshold
// trh on workload wl. Every failure wraps sim.ErrInvalidConfig.
func (k Knobs) Config(d sim.Design, trh int, wl string) (sim.Config, error) {
	policy, err := ParsePolicy(k.Policy)
	if err != nil {
		return sim.Config{}, fmt.Errorf("%w: %v", sim.ErrInvalidConfig, err)
	}
	cfg := sim.Config{
		Design:           d,
		TRH:              trh,
		Workload:         wl,
		Cores:            k.Cores,
		InstrPerCore:     k.InstrPerCore,
		NUP:              k.NUP,
		RowPress:         k.RowPress,
		Chips:            k.Chips,
		SRQSize:          k.SRQSize,
		DrainOnREF:       k.DrainOnREF,
		RFMLevel:         k.RFMLevel,
		MaxPostponedREFs: k.MaxPostponedREFs,
		PInvOverride:     k.PInvOverride,
		Policy:           policy,
		TimeoutNs:        k.TimeoutNs,
		Seed:             k.Seed,
		TrackSecurity:    k.Oracle,
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if err := cfg.Validate(); err != nil {
		return sim.Config{}, err
	}
	return cfg, nil
}

// Run is one JSON run specification. Sweep fields (Designs, TRHs,
// Workloads) cross-multiply; the knobs apply to every expansion.
type Run struct {
	// Name labels the run group in reports.
	Name string `json:"name"`
	// Designs are registry names (see sim.Designs()).
	Designs []string `json:"designs"`
	// TRHs are the Rowhammer thresholds to sweep (default [500]).
	TRHs []int `json:"trhs,omitempty"`
	// Workloads are Table 4 names, or ["all"], ["spec"], ["stream"],
	// ["mixes"] group aliases.
	Workloads []string `json:"workloads"`
	Knobs
}

// File is a whole configuration file.
type File struct {
	Runs []Run `json:"runs"`
}

// policyNames maps JSON policy names to controller policies.
var policyNames = map[string]mc.PagePolicy{
	"":        mc.OpenPage,
	"open":    mc.OpenPage,
	"close":   mc.ClosePage,
	"timeout": mc.TimeoutPage,
}

// ParsePolicy resolves a JSON page-policy name (case-insensitive,
// empty selects open-page) to its controller policy.
func ParsePolicy(name string) (mc.PagePolicy, error) {
	p, ok := policyNames[strings.ToLower(name)]
	if !ok {
		return 0, fmt.Errorf("config: unknown policy %q", name)
	}
	return p, nil
}

// Policies enumerates every named page policy in sorted order (the
// empty-string alias for open-page is omitted).
func Policies() []string {
	out := make([]string, 0, len(policyNames))
	for n := range policyNames {
		if n != "" {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// ExpandWorkloads resolves workload names and group aliases ("all",
// "spec", "stream", "mixes") into concrete Table 4 workload names.
func ExpandWorkloads(names []string) ([]string, error) {
	return expandWorkloads(names)
}

// Load parses a configuration file from r.
func Load(r io.Reader) (*File, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var f File
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if len(f.Runs) == 0 {
		return nil, fmt.Errorf("config: no runs defined")
	}
	for i := range f.Runs {
		if err := f.Runs[i].validate(); err != nil {
			return nil, fmt.Errorf("config: run %d (%s): %w", i, f.Runs[i].Name, err)
		}
	}
	return &f, nil
}

// LoadPath parses a configuration file from disk.
func LoadPath(path string) (*File, error) {
	fd, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fd.Close()
	return Load(fd)
}

func (r *Run) validate() error {
	if len(r.Designs) == 0 {
		return fmt.Errorf("designs are required")
	}
	if len(r.Workloads) == 0 {
		return fmt.Errorf("workloads are required")
	}
	for _, trh := range r.TRHs {
		if trh <= 0 {
			return fmt.Errorf("non-positive threshold %d", trh)
		}
	}
	_, err := r.expand()
	return err
}

// expandWorkloads resolves group aliases into concrete workload names.
func expandWorkloads(names []string) ([]string, error) {
	var out []string
	for _, n := range names {
		switch strings.ToLower(n) {
		case "all":
			out = append(out, workload.All()...)
		case "spec":
			out = append(out, workload.SPEC()...)
		case "stream":
			out = append(out, workload.Stream()...)
		case "mixes":
			out = append(out, workload.Mixes()...)
		default:
			if _, err := workload.Published(n); err != nil {
				return nil, fmt.Errorf("unknown workload %q", n)
			}
			out = append(out, n)
		}
	}
	return out, nil
}

// Expansion is one concrete run with its provenance.
type Expansion struct {
	RunName string
	Config  sim.Config
	// Knobs are the run's knobs as written, for re-submitting the run
	// as a service job.
	Knobs Knobs
}

// Expand cross-multiplies every run into concrete sim configurations.
func (f *File) Expand() ([]Expansion, error) {
	var out []Expansion
	for i := range f.Runs {
		exps, err := f.Runs[i].expand()
		if err != nil {
			return nil, err
		}
		out = append(out, exps...)
	}
	return out, nil
}

// expand cross-multiplies one run into validated configurations.
func (r *Run) expand() ([]Expansion, error) {
	wls, err := expandWorkloads(r.Workloads)
	if err != nil {
		return nil, err
	}
	trhs := r.TRHs
	if len(trhs) == 0 {
		trhs = []int{500}
	}
	var out []Expansion
	for _, name := range r.Designs {
		d, err := sim.ParseDesign(name)
		if err != nil {
			return nil, err
		}
		for _, trh := range trhs {
			for _, wl := range wls {
				cfg, err := r.Knobs.Config(d, trh, wl)
				if err != nil {
					return nil, err
				}
				out = append(out, Expansion{RunName: r.Name, Config: cfg, Knobs: r.Knobs})
			}
		}
	}
	return out, nil
}

// Example returns a documented example configuration, used by the CLI's
// -init flag.
func Example() *File {
	drain := 2
	return &File{Runs: []Run{
		{
			Name:      "headline",
			Designs:   []string{"baseline", "prac", "mopac-c", "mopac-d"},
			TRHs:      []int{500},
			Workloads: []string{"spec"},
			Knobs:     Knobs{InstrPerCore: 1_000_000, Seed: 1},
		},
		{
			Name:      "drain-sweep",
			Designs:   []string{"mopac-d"},
			TRHs:      []int{250},
			Workloads: []string{"lbm", "fotonik3d"},
			Knobs:     Knobs{DrainOnREF: &drain},
		},
	}}
}
