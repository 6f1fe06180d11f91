package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"mopac/internal/dram"
	"mopac/internal/mc"
	"mopac/internal/sim"
)

// goldenDigests pins the SHA-256 of each golden run's Result JSON, the
// devices' full command logs, and (oracle-on runs) the oracle's
// externally observable outputs. Any change to scheduling order,
// tie-breaking, epoch stopping or accounting flips at least one of
// them, and such a change also needs a result-store revision
// (hashVersion) because persisted results encode the old behaviour.
var goldenDigests = map[string][3]string{
	"attack": {
		"144189887bdbaa689a5c15ab223110a1682e1861af8f5eef329c6d895dec70db",
		"9715862a9fd600b160f2a7f96adb133d11b83b3785a32020f62414d2e0f32265",
		"14f0bf77c35ede45ff1b54acf58f9eae60d4a19ba9742c809faf7e9d6ba993b8",
	},
	"baseline": {
		"b35fa30eda77acd5f92a3987d799d011bfc00f2c8e5d664d5ccddb27a856ce60",
		"14ace8db745860eeaf4fcad9dde192da22f821d1cfdc3b861ba95907eeb658a4",
		"123692fe87fc8021eff1fab84225af073e3f81edfe8c44cf7eba0c313bd06256",
	},
	"chronos": {
		"332a11f64a9d6cb5b987ec58453422728f1caf517f9c131f4a36fc5e8fbd95a6",
		"f3810084d60ced41ec7651d979adb6beef3179a451fc593b8e1b447324e3eafd",
		"45b80caa836109d8ade7a9f6f25ea176fedc56fe53a941eab67a6627cdaa4277",
	},
	"default-cores": {
		"dd33364352eaa0f04e835c0cc07891b5b67685caa56869c0c928c2e1a1243c43",
		"a9c0c88cdbe43530760b85ca1c4b95b02dc55c25b955be133936aa89aba966d4",
		"",
	},
	"mint": {
		"b0fa33153fd40a6b399a973290fb47c4f1cafba3c29ba0c03dc2a20d413bdf85",
		"14ace8db745860eeaf4fcad9dde192da22f821d1cfdc3b861ba95907eeb658a4",
		"123692fe87fc8021eff1fab84225af073e3f81edfe8c44cf7eba0c313bd06256",
	},
	"mopac-c": {
		"ed90e0a796e360cf78ba4e7c752b812403464d6c82a047079faf558f4eaff576",
		"9d0206f71618ffbc63282af16325beae18918695d3dc393d140a2b4653ecf4de",
		"56be9aa104c2ce012241808b03b85fefd132db6eb56c7c7c000a3aee12110ada",
	},
	"mopac-d": {
		"01e86de2f32b9dc544c5fd79089ead3c2bad75d072c5ed39395a534725056782",
		"14ace8db745860eeaf4fcad9dde192da22f821d1cfdc3b861ba95907eeb658a4",
		"123692fe87fc8021eff1fab84225af073e3f81edfe8c44cf7eba0c313bd06256",
	},
	"prac": {
		"36fa99d4251200982b242a521ba77d4cdd1f31ffd0ff92ce27f1e8475895ef2a",
		"d357d9ff452fd19f05e476a3f4a77624aaf98af2efaa0d9b2aa1994e44b836f5",
		"846bca0922e24dd5da0b2358d68c333a08a41bd399666f4686e7d6754b1d11b0",
	},
	"pride": {
		"c72a0478c1df6fa7e1e589a0065e6849b755091dd1eac0004c9bbba5f6e3526e",
		"14ace8db745860eeaf4fcad9dde192da22f821d1cfdc3b861ba95907eeb658a4",
		"b7ea45f0cde0e7cdd4426826b1a65b6822bb96a65167af73bc56f58498fe8ba9",
	},
	"qprac": {
		"d7c42f6aea6c372e3d4d7a23f2bc5b4cb7e63f429616b2e4714f9a0ef19fb927",
		"d357d9ff452fd19f05e476a3f4a77624aaf98af2efaa0d9b2aa1994e44b836f5",
		"846bca0922e24dd5da0b2358d68c333a08a41bd399666f4686e7d6754b1d11b0",
	},
	"trr": {
		"76c0fb817ac05cbd929d984da42d5b97e3b993b84edd8d92bf5809496c5d1e5f",
		"14ace8db745860eeaf4fcad9dde192da22f821d1cfdc3b861ba95907eeb658a4",
		"123692fe87fc8021eff1fab84225af073e3f81edfe8c44cf7eba0c313bd06256",
	},
}

// goldenConfigs returns the pinned runs: every registered design at a
// small scale with the oracle on, one default-cores (8) run in which
// both controllers complete accesses at the same instant (seed 2 is one
// whose result depends on Send ordering those hops by sender), and
// one oracle-on attack-spec workload that drives MoPAC-D through ABO
// episodes and mitigations. Each command-log depth exceeds the run's
// per-device command count, so the digest covers the whole stream.
func goldenConfigs(t *testing.T) map[string]sim.Config {
	t.Helper()
	out := map[string]sim.Config{}
	for _, name := range sim.Designs() {
		d, err := sim.ParseDesign(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = sim.Config{
			Design:          d,
			TRH:             500,
			Workload:        "bwaves",
			Cores:           2,
			InstrPerCore:    30_000,
			Seed:            7,
			TrackSecurity:   true,
			CommandLogDepth: 1 << 13,
		}
	}
	out["default-cores"] = sim.Config{
		Design:          sim.DesignBaseline,
		Workload:        "bwaves",
		InstrPerCore:    100_000,
		Seed:            2,
		CommandLogDepth: 1 << 16,
	}
	out["attack"] = sim.Config{
		Design:          sim.DesignMoPACD,
		TRH:             500,
		Workload:        "attack:double-sided:sub=0,bank=3,victim=1000",
		Cores:           2,
		InstrPerCore:    10_000,
		Seed:            1,
		TrackSecurity:   true,
		CommandLogDepth: 1 << 16,
	}
	return out
}

func digest(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// TestResultDigestGolden is the byte-identity proof for the engine: it
// compares each golden run against committed digests, so a change that
// alters any Result field, any DRAM command or any oracle output fails
// here even when it is self-consistent from run to run.
func TestResultDigestGolden(t *testing.T) {
	for name, cfg := range goldenConfigs(t) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sys, err := sim.NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Run(0)
			if err != nil {
				t.Fatal(err)
			}
			var logs [][]dram.LogEntry
			for _, dev := range sys.Devices() {
				log := dev.CommandLog()
				if len(log) >= cfg.CommandLogDepth {
					t.Fatalf("command log filled its %d-entry ring; raise the depth", cfg.CommandLogDepth)
				}
				logs = append(logs, log)
			}
			got := [3]string{digest(t, res), digest(t, logs), ""}
			if cfg.TrackSecurity {
				c, b, r := res.Oracle.MaxUnmitigated()
				got[2] = digest(t, map[string]any{
					"secure":      res.Oracle.Secure(),
					"violations":  res.Oracle.Violations(),
					"top_peaks":   res.Oracle.TopPeaks(-1),
					"max":         []int{c, b, r},
					"activations": res.Oracle.Activations(),
					"mitigations": res.Oracle.Mitigations(),
				})
			}
			want, ok := goldenDigests[name]
			if !ok {
				t.Fatalf("no golden digest for %q; got %q", name, got)
			}
			if got != want {
				t.Errorf("digests diverged\n got: %q\nwant: %q", got, want)
			}
		})
	}
}

// TestEpochStartTimeNs pins TimeNs for short runs that the epoch start
// rule decides: an epoch starts at the earliest pending instant, which
// may be a completion departing on a return link rather than an event.
// Starting epochs at the next event instead moves every value below,
// while the digests above happen not to depend on it.
func TestEpochStartTimeNs(t *testing.T) {
	for _, c := range []struct {
		design   sim.Design
		workload string
		seed     uint64
		want     int64
	}{
		{sim.DesignBaseline, "bwaves", 4, 1888},
		{sim.DesignBaseline, "mcf", 2, 1684},
		{sim.DesignBaseline, "lbm", 3, 1455},
		{sim.DesignPRAC, "bwaves", 7, 2320},
		{sim.DesignPRAC, "mcf", 4, 1745},
		{sim.DesignMoPACC, "bwaves", 6, 2110},
	} {
		sys, err := sim.NewSystem(sim.Config{Design: c.design, Workload: c.workload, Seed: c.seed, InstrPerCore: 3000})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		if res.TimeNs != c.want {
			t.Errorf("%v %s seed %d: TimeNs = %d, want %d", c.design, c.workload, c.seed, res.TimeNs, c.want)
		}
	}
}

// knobGridDigests pins one digest per knobGrid cell, covering the
// cell's full command logs, its oracle outputs and every Result field
// except Config. Leaving Config out keeps the digests independent of
// how the configuration itself is encoded, so they change only when a
// DRAM command, an oracle output or a measured statistic does.
var knobGridDigests = map[string]string{
	"baseline-nup":       "1bbfc27c4f1ee2bd222b6062ce177731f5427765e7e5eb5fe293eb28e521cdc3",
	"chronos-postponed":  "7897d3eade687cba9c0dba5b9026b883c1924fcfa6f2b5889ad3a8f9adb1e510",
	"mint-chips1-nup":    "5f81c95d9cc34f18741cda8d5d1d66ccb4f9522657251342e7fff52882250464",
	"mopac-c-pinv":       "f3db8924a0ef69504fc0fc7ff9b9bce072bcddaeefaf4da372324ac9a59ddf60",
	"mopac-c-rowpress":   "d712f68478a7778a981ac5ab6a0d60c2972941a372217b132cd4c0e6a4a3bcb9",
	"mopac-c-srq-drain0": "bbfabed2243555d3e1ca1016b1b8a587296f5dc2524a14f9eee67c9180c2afe0",
	"mopac-d-chips1":     "bb848214f0e8a525806e52e57a763c8d0c01c0dce5ddf2f8effc53c1aed67c79",
	"mopac-d-close":      "2579100e575657b9bbeb959863c45eb7c1c4d7058f57934525ba7002fd5e6a78",
	"mopac-d-drain0":     "0fa2b782a59b808ea9ee6e949d63b7574a6ed0f119fe3c5d61b1396251b7d6ec",
	"mopac-d-nup":        "5f66bb3341efef7611d66114f0f68c6834eff6290336369fe2f066dcfbaa9d31",
	"mopac-d-nup-rowpr":  "e7b876d3f38337bf9e7c43b8729352df5baf9297c2ef81dcc6921fc46d017264",
	"mopac-d-pinv":       "e13b9d2bcae20d9951198edb1495468a10406146549d7c9b3eebd5e32e7c0dd2",
	"mopac-d-rowpress":   "0872c90aea68dae692f1980e2e06dd5766fb21f47957a2f1818dd63542fad38a",
	"mopac-d-srq":        "390cdfc8ec734c66b42547f10519b9f6fc670f2b44783d849e7412bc16f143a7",
	"prac-rfm2":          "9f1f527ecfb0d3be9bf5b0d8d16162567390f161d15a14aa5f7890514abe91c4",
	"prac-rowpress":      "91ccd7237cb08c50826d1f36e0135b4e380a56bdfc3dc787997cd124ad82626d",
	"prac-timeout":       "5ddfc9d7d400b25902e02fdf7c461481c483f64a62c24ed3883f89580392b784",
	"qprac-chips1-pinv":  "5c04767d7226a7a9facb6868133a0e9a7f09dc79b239312a6bc0b540ce337bc3",
}

// knobGrid returns runs that set the design knobs the per-design
// goldens leave at their defaults, including knobs set on designs that
// ignore them (which must then run exactly as without the knob). Cells
// whose knob only matters under pressure run the golden attack spec
// instead of bwaves.
func knobGrid() map[string]sim.Config {
	zero := 0
	attack := "attack:double-sided:sub=0,bank=3,victim=1000"
	cell := func(d sim.Design, mod func(*sim.Config)) sim.Config {
		c := sim.Config{
			Design:          d,
			TRH:             500,
			Workload:        "bwaves",
			Cores:           2,
			InstrPerCore:    30_000,
			Seed:            7,
			TrackSecurity:   true,
			CommandLogDepth: 1 << 16,
		}
		mod(&c)
		return c
	}
	return map[string]sim.Config{
		"mopac-c-rowpress":   cell(sim.DesignMoPACC, func(c *sim.Config) { c.RowPress = true }),
		"mopac-d-rowpress":   cell(sim.DesignMoPACD, func(c *sim.Config) { c.RowPress = true }),
		"mopac-d-nup":        cell(sim.DesignMoPACD, func(c *sim.Config) { c.NUP = true; c.Workload, c.InstrPerCore = attack, 10_000 }),
		"mopac-d-nup-rowpr":  cell(sim.DesignMoPACD, func(c *sim.Config) { c.NUP = true; c.RowPress = true; c.Workload, c.InstrPerCore = attack, 10_000 }),
		"mopac-c-pinv":       cell(sim.DesignMoPACC, func(c *sim.Config) { c.PInvOverride = 8 }),
		"mopac-d-pinv":       cell(sim.DesignMoPACD, func(c *sim.Config) { c.PInvOverride = 8; c.Workload, c.InstrPerCore = attack, 10_000 }),
		"mopac-d-srq":        cell(sim.DesignMoPACD, func(c *sim.Config) { c.SRQSize = 2; c.Workload, c.InstrPerCore = attack, 10_000 }),
		"mopac-d-drain0":     cell(sim.DesignMoPACD, func(c *sim.Config) { c.DrainOnREF = &zero; c.Workload, c.InstrPerCore = attack, 10_000 }),
		"mopac-d-chips1":     cell(sim.DesignMoPACD, func(c *sim.Config) { c.Chips = 1; c.TRH = 250; c.Workload, c.InstrPerCore = attack, 10_000 }),
		"prac-rfm2":          cell(sim.DesignPRAC, func(c *sim.Config) { c.RFMLevel = 2; c.TRH = 250; c.Workload, c.InstrPerCore = attack, 10_000 }),
		"mopac-d-close":      cell(sim.DesignMoPACD, func(c *sim.Config) { c.Policy = mc.ClosePage }),
		"prac-timeout":       cell(sim.DesignPRAC, func(c *sim.Config) { c.Policy = mc.TimeoutPage; c.TimeoutNs = 200 }),
		"chronos-postponed":  cell(sim.DesignChronos, func(c *sim.Config) { c.MaxPostponedREFs = 4 }),
		"baseline-nup":       cell(sim.DesignBaseline, func(c *sim.Config) { c.NUP = true }),
		"prac-rowpress":      cell(sim.DesignPRAC, func(c *sim.Config) { c.RowPress = true; c.Workload, c.InstrPerCore = attack, 10_000 }),
		"mopac-c-srq-drain0": cell(sim.DesignMoPACC, func(c *sim.Config) { c.SRQSize = 2; c.DrainOnREF = &zero; c.Workload, c.InstrPerCore = attack, 10_000 }),
		"qprac-chips1-pinv":  cell(sim.DesignQPRAC, func(c *sim.Config) { c.Chips = 1; c.PInvOverride = 8; c.Workload, c.InstrPerCore = attack, 10_000 }),
		"mint-chips1-nup":    cell(sim.DesignMINT, func(c *sim.Config) { c.Chips = 1; c.NUP = true; c.Workload, c.InstrPerCore = attack, 10_000 }),
	}
}

// TestKnobGridGolden compares each knobGrid cell against its committed
// digest.
func TestKnobGridGolden(t *testing.T) {
	for name, cfg := range knobGrid() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sys, err := sim.NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Run(0)
			if err != nil {
				t.Fatal(err)
			}
			var logs [][]dram.LogEntry
			for _, dev := range sys.Devices() {
				log := dev.CommandLog()
				if len(log) >= cfg.CommandLogDepth {
					t.Fatalf("command log filled its %d-entry ring; raise the depth", cfg.CommandLogDepth)
				}
				logs = append(logs, log)
			}
			raw, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var fields map[string]json.RawMessage
			if err := json.Unmarshal(raw, &fields); err != nil {
				t.Fatal(err)
			}
			delete(fields, "Config")
			c, b, r := res.Oracle.MaxUnmitigated()
			got := digest(t, map[string]any{
				"result": fields,
				"logs":   logs,
				"oracle": map[string]any{
					"secure":      res.Oracle.Secure(),
					"violations":  res.Oracle.Violations(),
					"top_peaks":   res.Oracle.TopPeaks(-1),
					"max":         []int{c, b, r},
					"activations": res.Oracle.Activations(),
					"mitigations": res.Oracle.Mitigations(),
				},
			})
			if want := knobGridDigests[name]; got != want {
				t.Errorf("digest diverged\n got: %q\nwant: %q", got, want)
			}
		})
	}
}
