package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"mopac/internal/config"
	"mopac/internal/dram"
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
		"4f2494cb05672b2644c599ebe322e66a987b36606dbbebdb8d42c08d47c1d154",
		"9715862a9fd600b160f2a7f96adb133d11b83b3785a32020f62414d2e0f32265",
		"14f0bf77c35ede45ff1b54acf58f9eae60d4a19ba9742c809faf7e9d6ba993b8",
	},
	"baseline": {
		"e1134e13e98d442ccd376d9d12bef7751f320c081fd77b31837c178e080e5a63",
		"14ace8db745860eeaf4fcad9dde192da22f821d1cfdc3b861ba95907eeb658a4",
		"123692fe87fc8021eff1fab84225af073e3f81edfe8c44cf7eba0c313bd06256",
	},
	"chronos": {
		"d820e6c7384fde81d59bd196f47807581d3c95dc60e9677c22d3b1984b84544d",
		"f3810084d60ced41ec7651d979adb6beef3179a451fc593b8e1b447324e3eafd",
		"45b80caa836109d8ade7a9f6f25ea176fedc56fe53a941eab67a6627cdaa4277",
	},
	"default-cores": {
		"79c18f24637a55024113ff267bd8e28c9146c9cc9a09603c7b177f3776083fb4",
		"a9c0c88cdbe43530760b85ca1c4b95b02dc55c25b955be133936aa89aba966d4",
		"",
	},
	"mint": {
		"f94e7a701b3c93ed8c2b5ccfe43f78e73f4abdbcd8dbf55e164d0af646a4516c",
		"14ace8db745860eeaf4fcad9dde192da22f821d1cfdc3b861ba95907eeb658a4",
		"123692fe87fc8021eff1fab84225af073e3f81edfe8c44cf7eba0c313bd06256",
	},
	"mopac-c": {
		"34070cc7fe9b7b73ee2e460b81a44c84a91437ee665a7795c172173185889355",
		"9d0206f71618ffbc63282af16325beae18918695d3dc393d140a2b4653ecf4de",
		"56be9aa104c2ce012241808b03b85fefd132db6eb56c7c7c000a3aee12110ada",
	},
	"mopac-d": {
		"bdfd3d9d6b7a6f2c1ea3811354dc3f66385148df1c8ccf25c4446c8ca0661fb8",
		"14ace8db745860eeaf4fcad9dde192da22f821d1cfdc3b861ba95907eeb658a4",
		"123692fe87fc8021eff1fab84225af073e3f81edfe8c44cf7eba0c313bd06256",
	},
	"prac": {
		"7f41601c66005078bef26a0f82001d1e40ee469e0b657a9cd073b6cc7336690f",
		"d357d9ff452fd19f05e476a3f4a77624aaf98af2efaa0d9b2aa1994e44b836f5",
		"846bca0922e24dd5da0b2358d68c333a08a41bd399666f4686e7d6754b1d11b0",
	},
	"pride": {
		"11053d9ff017a548155aa1b844dbea5df75f6c18f9f995d29768cc109aca1307",
		"14ace8db745860eeaf4fcad9dde192da22f821d1cfdc3b861ba95907eeb658a4",
		"b7ea45f0cde0e7cdd4426826b1a65b6822bb96a65167af73bc56f58498fe8ba9",
	},
	"qprac": {
		"5e0eca284cbb06c28f4ff932263a62f671050c4b92998ebdfe181e3df30fc767",
		"d357d9ff452fd19f05e476a3f4a77624aaf98af2efaa0d9b2aa1994e44b836f5",
		"846bca0922e24dd5da0b2358d68c333a08a41bd399666f4686e7d6754b1d11b0",
	},
	"trr": {
		"8e7dc7cecf724103a48a2035bbe241a26985f4993b8691fc07209de15f11a139",
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
	for _, name := range config.Designs() {
		d, err := config.ParseDesign(name)
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
