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
// tie-breaking, the stop rule or accounting flips at least one of
// them, and such a change also needs a result-store revision
// (hashVersion) because persisted results encode the old behaviour.
var goldenDigests = map[string][3]string{
	"attack": {
		"be46863347a54fd5f451473753d81ea530b846c391798d69ec416abf9648435d",
		"9715862a9fd600b160f2a7f96adb133d11b83b3785a32020f62414d2e0f32265",
		"14f0bf77c35ede45ff1b54acf58f9eae60d4a19ba9742c809faf7e9d6ba993b8",
	},
	"baseline": {
		"066fb457492b269067168b8fc5c76cb32bb8e57f649b27c77de36a107a7a38e0",
		"ba66c00de86e6fcb2657747b111e2152bb799b955a32911ddddbf6319def634e",
		"d26985e2cc2de9b48fd8ad74f20e5e6c7a34f04ceba32a16b0f3d89b20bb8ea5",
	},
	"chronos": {
		"11c4b495faffd09e769e58e45086be664cd8f8896c722314add3dd349cf33ad9",
		"da7cdf621f6f75542e9227549fb1f961f050d22e139b9c1f1c5ae975da1c8999",
		"88f4f454ce42801ac6cb6ac35647fa605ac36aeb1b8a086068fb004bc3cdd930",
	},
	"default-cores": {
		"31df24db37d6938086f9c01d64c62ae4ab1c34f5d0924b4a2138a478de8ffb65",
		"19a7fa9b4eb5d0257a71a6bce3d55892131f5086f0bc65e4e4b073e900ad2e46",
		"",
	},
	"mint": {
		"11089f2b365f7da74570a8665f9246b2d9d42d66b4c8f51a78495a142b3ce80b",
		"ba66c00de86e6fcb2657747b111e2152bb799b955a32911ddddbf6319def634e",
		"d26985e2cc2de9b48fd8ad74f20e5e6c7a34f04ceba32a16b0f3d89b20bb8ea5",
	},
	"mopac-c": {
		"0f373f7abdc127147b35a57c44d1f44ff7225f4f179480adf99667f294a3dcaa",
		"a064f5123cfbc0bca2c186923a652a58e8f0add792226177a6fd4d93bac2fdca",
		"50e0971b6c8dae05524cad2e861bd56e440f03ada570e3e94378eb0aa8b0fd6b",
	},
	"mopac-d": {
		"913104980e3d4e199a0938ebc85e0bf7796f50c478be35a95ff41bdb2cfb24e1",
		"ba66c00de86e6fcb2657747b111e2152bb799b955a32911ddddbf6319def634e",
		"d26985e2cc2de9b48fd8ad74f20e5e6c7a34f04ceba32a16b0f3d89b20bb8ea5",
	},
	"prac": {
		"810e19be69f387c12863cd45b701aed538f52c7cb442ebc9dc5d20cc717fd99b",
		"8cea400d6ee6750d53e37ce4fca1d92ea50ca42b3820ecf08b1cea3c37d4ec3e",
		"9825ce1f697ae1188298dc4453432a47b06ce161b634e9290e06f2de73820da9",
	},
	"pride": {
		"ac4961d5b46d9c5279eba84a4ab6c784a5317b4b58f694a0cf01b6e2025c8b8d",
		"ba66c00de86e6fcb2657747b111e2152bb799b955a32911ddddbf6319def634e",
		"41f421cc47e56813ce4b40e685a864a2c8c5528bd428734c3f260c65b1e05d1d",
	},
	"qprac": {
		"046bd35f625b89cad6a401b44ac2fb8b49891e6ee8d07bcfd9a00697312d56c2",
		"8cea400d6ee6750d53e37ce4fca1d92ea50ca42b3820ecf08b1cea3c37d4ec3e",
		"9825ce1f697ae1188298dc4453432a47b06ce161b634e9290e06f2de73820da9",
	},
	"trr": {
		"a063ed1eee89307de6bd47f74d67279e67fe4912bac5b2b951df914df95b2c42",
		"ba66c00de86e6fcb2657747b111e2152bb799b955a32911ddddbf6319def634e",
		"d26985e2cc2de9b48fd8ad74f20e5e6c7a34f04ceba32a16b0f3d89b20bb8ea5",
	},
}

// goldenEvents pins the exact number of events each golden run fires.
// The digests above catch any change to what a run computes; this
// catches a change to what it costs: an event that fires but changes
// no state leaves every digest alone and moves this count.
var goldenEvents = map[string]uint64{
	"attack":        100655,
	"baseline":      12651,
	"chronos":       12699,
	"default-cores": 164348,
	"mint":          12651,
	"mopac-c":       12639,
	"mopac-d":       12651,
	"prac":          12525,
	"pride":         12651,
	"qprac":         12525,
	"trr":           12651,
}

// goldenConfigs returns the pinned runs: every registered design at a
// small scale with the oracle on, one default-cores (8) run in which
// both controllers complete accesses at the same instant, so the
// result depends on the order of same-instant return hops, and
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
			if got, want := sys.Engine().Fired(), goldenEvents[name]; got != want {
				t.Errorf("fired %d events, want %d", got, want)
			}
		})
	}
}

// knobGridDigests pins one digest per knobGrid cell, covering the
// cell's full command logs, its oracle outputs and every Result field
// except Config. Leaving Config out keeps the digests independent of
// how the configuration itself is encoded, so they change only when a
// DRAM command, an oracle output or a measured statistic does.
var knobGridDigests = map[string]string{
	"baseline-nup":       "5bb7d47ab6fefd23ff5fe570bc8b1519c07bfd1cdde64917aa5985b5dcc93997",
	"chronos-postponed":  "014636186d736080862466581cda21a82e9bd692463f0783c922ee22c8d09343",
	"mint-chips1-nup":    "f3adced6fa9c9ddfa47e9348752e9509810b7f5bdb10f4a61a926133e930d484",
	"mopac-c-pinv":       "4ddd91f5911da0de5a7ceaf4dfaa2ae8f9f7073bf6af4cd5af31a4ae8a6553fc",
	"mopac-c-rowpress":   "d81f89d0f3cf98212bd4c47af00f956b8b7148db3e53e41b61a4ded374520232",
	"mopac-c-srq-drain0": "db0d3809e1dd0ff50d449b28f19013cd9164fa570e56bd920c90ee22c50d39de",
	"mopac-d-chips1":     "9495721924a2dd050133c0b9e855929e8e9a6c30c9ee56216ea9c291d803473e",
	"mopac-d-close":      "c03b7d4bfb53610ffcab82abe15b5b0d6ac122492b4a1ca7bafb19f9662a6bca",
	"mopac-d-drain0":     "d2b221bc164a5e1283049ea751a603185e9160b192e32ceca699ba323522f09d",
	"mopac-d-nup":        "da6b0a05f642c7ca10d07a60b3f2e1402ef653ec6f407d7d6dccf30f56248b96",
	"mopac-d-nup-rowpr":  "14133f8f22a142279de4ef88c998293705be07b447e5b7cec52e46ad53b9f046",
	"mopac-d-pinv":       "4940d3205b4fd47e07cd88cbfeaa13df552b226e01a1410a6e553bb45053eb3e",
	"mopac-d-rowpress":   "fd6775bf705555ecb4e939aa3b77768a4c575eb08dc9706b38aa279f62d34a6f",
	"mopac-d-srq":        "f7a16371e60d848fe630c5e4eeab6de9023462551b66cfb87f8110e5e28d4b20",
	"prac-rfm2":          "ac0326557c02f98f406d3f0b02a00a155bf29bee12b0ed0ca1176128a6e21165",
	"prac-rowpress":      "998247da1089a6c0662bae75c3b264dab38fcb2e16fcf945ba05d9152e1943fc",
	"prac-timeout":       "ed1f4282ab90960545178124e75a515599c4c57edeecaa01de485f4d6bd14c4d",
	"qprac-chips1-pinv":  "c712f0c921d4d3b4c553d4d7f8cb79a8a33f4b7a7379aef054cf3d2f117a27c2",
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
