package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"time"
)

// TestScheduleGolden pins buildSchedule: a SHA-256 over every
// request's arrival offset and body. The schedule is the load a
// benchmark replays, so any change to the RNG draw order, the arrival
// shapes or the job body encoding shows up here.
func TestScheduleGolden(t *testing.T) {
	defaults := scheduleParams{
		rate: 10, duration: 10 * time.Second, seed: 1,
		designs: []string{"baseline", "mopac-d"}, workloads: []string{"lbm"},
		seeds: 8, instr: 20000, herd: 16,
	}
	// The saturating comparison load: -shape poisson -rate 60
	// -duration 10s -instr 100000 -seeds 100000 -seed 3.
	saturating := defaults
	saturating.shape, saturating.rate, saturating.seed = "poisson", 60, 3
	saturating.instr, saturating.seeds = 100000, 100000

	cases := []struct {
		name string
		p    scheduleParams
		n    int
		want string
	}{
		{"poisson-seed1", withShape(defaults, "poisson"), 101,
			"e4e60b076998038c06a9418dd835b2a70de1c968eb2d57c563ea108eff05154e"},
		{"diurnal-seed1", withShape(defaults, "diurnal"), 58,
			"9c8579ee8b0f53968eb147385800caddb09a94502da8045e5c5778fa4ad91419"},
		{"herd-seed1", withShape(defaults, "herd"), 73,
			"2faddfdc19f34042dcada4c7fe7bf38600433634f17f83273079608496fa17dd"},
		{"poisson-seed3-saturating", saturating, 564,
			"8655109f3bb12ad582dd98ec2bf62742e61753e53678734c7be208d4321b40b0"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			plan, err := buildSchedule(c.p)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			var buf [8]byte
			for _, r := range plan {
				binary.BigEndian.PutUint64(buf[:], uint64(r.at))
				h.Write(buf[:])
				binary.BigEndian.PutUint64(buf[:], uint64(len(r.body)))
				h.Write(buf[:])
				h.Write(r.body)
			}
			got := hex.EncodeToString(h.Sum(nil))
			if len(plan) != c.n || got != c.want {
				t.Errorf("%d requests, digest %s; want %d, %s", len(plan), got, c.n, c.want)
			}
		})
	}
}

func withShape(p scheduleParams, shape string) scheduleParams {
	p.shape = shape
	return p
}
