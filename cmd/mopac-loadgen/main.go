// Command mopac-loadgen replays synthetic arrival shapes against a
// mopac-serve endpoint and reports what the service did under that
// load: latency quantiles, 429 backpressure rate, lost jobs, and the
// target's cache counters.
//
//	mopac-loadgen -target http://localhost:8080 -shape poisson -rate 20 -duration 15s
//	mopac-loadgen -target http://localhost:8080 -shape herd
//
// Shapes:
//
//   - poisson: stationary Poisson arrivals at -rate jobs/sec.
//   - diurnal: a sinusoidal day compressed into -duration — arrivals
//     thin to ~10% of -rate in the trough and peak at -rate mid-run.
//   - herd: a Poisson trickle at half -rate, plus a thundering herd at
//     the midpoint: -herd identical requests for one hot config,
//     released simultaneously. Exercises request coalescing and the
//     result cache; a healthy target serves the herd mostly from one
//     simulation.
//
// Every request is submitted synchronously (POST /v1/jobs?wait=1).
// 429 responses honor Retry-After (clamped to -retry-cap) up to
// -retries times. The schedule is fully determined by -seed.
//
// Exit status is nonzero if any job was lost — submitted but never
// brought to a terminal state (connection errors, retry exhaustion,
// non-terminal replies). Failed-but-terminal jobs (the service ran the
// config and reported an error) are reported separately and do not
// fail the run unless -strict is set.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mopac/internal/config"
	"mopac/internal/service"
	"mopac/internal/stats"
)

func main() {
	var (
		target    = flag.String("target", "http://localhost:8080", "mopac-serve base URL")
		shape     = flag.String("shape", "poisson", "arrival shape: poisson | diurnal | herd")
		rate      = flag.Float64("rate", 10, "mean arrival rate, jobs/sec")
		duration  = flag.Duration("duration", 10*time.Second, "length of the generated schedule")
		designs   = flag.String("designs", "baseline,mopac-d", "comma-separated designs to draw configs from")
		workloads = flag.String("workloads", "lbm", "comma-separated workloads to draw configs from")
		seeds     = flag.Int("seeds", 8, "distinct config seeds (smaller = hotter cache)")
		instr     = flag.Int64("instr", 20000, "instructions per core per job (job size)")
		herdSize  = flag.Int("herd", 16, "requests in the thundering herd (shape=herd)")
		seed      = flag.Int64("seed", 1, "schedule RNG seed (same seed = same schedule)")
		maxConc   = flag.Int("c", 64, "max in-flight requests")
		retries   = flag.Int("retries", 8, "max 429 retries per job")
		retryCap  = flag.Duration("retry-cap", 5*time.Second, "clamp for honored Retry-After sleeps")
		strict    = flag.Bool("strict", false, "exit nonzero on failed (terminal-error) jobs too")
	)
	flag.Parse()

	plan, err := buildSchedule(scheduleParams{
		shape: *shape, rate: *rate, duration: *duration, seed: *seed,
		designs: splitList(*designs), workloads: splitList(*workloads),
		seeds: *seeds, instr: *instr, herd: *herdSize,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mopac-loadgen:", err)
		os.Exit(2)
	}
	fmt.Printf("mopac-loadgen: %d requests over %s (%s) against %s\n",
		len(plan), duration.String(), *shape, *target)

	res := replay(*target, plan, *maxConc, *retries, *retryCap)
	res.report(os.Stdout, *target)

	if res.lost > 0 || (*strict && res.failed > 0) {
		os.Exit(1)
	}
}

// request is one scheduled arrival.
type request struct {
	at   time.Duration // offset from run start
	body []byte
}

type scheduleParams struct {
	shape              string
	rate               float64
	duration           time.Duration
	seed               int64
	designs, workloads []string
	seeds              int
	instr              int64
	herd               int
}

// buildSchedule produces the deterministic arrival plan. Everything —
// arrival times and config draws — comes from one seeded RNG,
// so a re-run replays byte-identical requests at the same offsets.
func buildSchedule(p scheduleParams) ([]request, error) {
	if p.rate <= 0 || p.duration <= 0 {
		return nil, fmt.Errorf("need positive -rate and -duration")
	}
	if len(p.designs) == 0 || len(p.workloads) == 0 || p.seeds <= 0 {
		return nil, fmt.Errorf("need at least one design, workload, and seed")
	}
	rng := rand.New(rand.NewSource(p.seed))

	job := func() []byte {
		req := service.JobRequest{
			Design:   p.designs[rng.Intn(len(p.designs))],
			Workload: p.workloads[rng.Intn(len(p.workloads))],
			Knobs: config.Knobs{
				InstrPerCore: p.instr,
				Seed:         uint64(rng.Intn(p.seeds) + 1),
			},
		}
		body, _ := json.Marshal(req)
		return body
	}

	var arrivals []time.Duration
	switch p.shape {
	case "poisson":
		arrivals = poissonArrivals(rng, p.rate, p.duration)
	case "diurnal":
		// Thinning: candidates at the peak rate, each kept with
		// probability lambda(t)/peak. lambda dips to 10% at the edges and
		// peaks mid-run — one "day" compressed into the duration.
		for _, t := range poissonArrivals(rng, p.rate, p.duration) {
			phase := float64(t) / float64(p.duration)
			lambda := 0.1 + 0.9*math.Sin(math.Pi*phase)*math.Sin(math.Pi*phase)
			if rng.Float64() < lambda {
				arrivals = append(arrivals, t)
			}
		}
	case "herd":
		arrivals = poissonArrivals(rng, p.rate/2, p.duration)
	default:
		return nil, fmt.Errorf("unknown shape %q (want poisson, diurnal, or herd)", p.shape)
	}

	plan := make([]request, 0, len(arrivals)+p.herd)
	for _, t := range arrivals {
		plan = append(plan, request{at: t, body: job()})
	}
	if p.shape == "herd" {
		// One hot config, p.herd clients, zero stagger.
		hot := job()
		for range p.herd {
			plan = append(plan, request{at: p.duration / 2, body: hot})
		}
		sort.Slice(plan, func(i, j int) bool { return plan[i].at < plan[j].at })
	}
	return plan, nil
}

// poissonArrivals draws exponential inter-arrival gaps at the given
// rate until the horizon is exhausted.
func poissonArrivals(rng *rand.Rand, rate float64, horizon time.Duration) []time.Duration {
	var out []time.Duration
	t := time.Duration(0)
	for {
		gap := time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		t += gap
		if t >= horizon {
			return out
		}
		out = append(out, t)
	}
}

// results aggregates one replay.
type results struct {
	mu        sync.Mutex
	latency   stats.Histogram
	submitted int
	completed int
	cacheHits int
	failed    int // terminal StateFailed/StateCancelled
	lost      int // never reached a terminal state
	rejected  int // individual 429 responses (before retry)
	waited    time.Duration
	errs      []string // sample of loss causes, capped
}

// lose counts a lost job, keeping the first few causes for the report.
func (res *results) lose(cause string) {
	res.record(func() {
		res.lost++
		if len(res.errs) < 5 {
			res.errs = append(res.errs, cause)
		}
	})
}

// replay fires the plan against target, honoring arrival offsets,
// bounded by maxConc in-flight requests.
func replay(target string, plan []request, maxConc, retries int, retryCap time.Duration) *results {
	res := &results{submitted: len(plan)}
	client := &http.Client{Timeout: 2 * time.Minute}
	sem := make(chan struct{}, max(1, maxConc))
	var wg sync.WaitGroup
	start := time.Now()
	for _, r := range plan {
		if wait := r.at - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(r request) {
			defer wg.Done()
			defer func() { <-sem }()
			res.one(client, target, r, retries, retryCap)
		}(r)
	}
	wg.Wait()
	return res
}

// one submits a single job synchronously, retrying 429s.
func (res *results) one(client *http.Client, target string, r request, retries int, retryCap time.Duration) {
	url := strings.TrimSuffix(target, "/") + "/v1/jobs?wait=1"
	begin := time.Now()
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(url, "application/json", bytes.NewReader(r.body))
		if err != nil {
			res.lose(err.Error())
			return
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			wait := retryAfter(resp.Header.Get("Retry-After"), retryCap)
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			res.record(func() { res.rejected++; res.waited += wait })
			if attempt >= retries {
				res.lose(fmt.Sprintf("gave up after %d 429s", attempt+1))
				return
			}
			time.Sleep(wait)
			continue
		}
		var status service.JobStatus
		raw, decodeErr := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if decodeErr == nil {
			decodeErr = json.Unmarshal(raw, &status)
		}
		lat := time.Since(begin)
		switch {
		case resp.StatusCode != http.StatusOK || decodeErr != nil || !status.State.Terminal():
			res.lose(fmt.Sprintf("status %d, state %q: %.120s", resp.StatusCode, status.State, string(raw)))
		case status.State == service.StateDone:
			res.record(func() {
				res.completed++
				res.latency.Observe(int64(lat))
				if status.CacheHit {
					res.cacheHits++
				}
			})
		default:
			res.record(func() { res.failed++ })
		}
		return
	}
}

func (res *results) record(fn func()) {
	res.mu.Lock()
	defer res.mu.Unlock()
	fn()
}

// retryAfter parses a Retry-After header (delta-seconds form), clamped
// to [100ms, cap].
func retryAfter(h string, cap time.Duration) time.Duration {
	d := 500 * time.Millisecond
	if secs, err := strconv.Atoi(strings.TrimSpace(h)); err == nil && secs > 0 {
		d = time.Duration(secs) * time.Second
	}
	if d > cap {
		d = cap
	}
	if d < 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	return d
}

func (res *results) report(w io.Writer, target string) {
	s := res.latency.Snapshot()
	fmt.Fprintf(w, "\nsubmitted   %d\n", res.submitted)
	fmt.Fprintf(w, "completed   %d (%d served from cache)\n", res.completed, res.cacheHits)
	fmt.Fprintf(w, "failed      %d\n", res.failed)
	fmt.Fprintf(w, "lost        %d\n", res.lost)
	for _, e := range res.errs {
		fmt.Fprintf(w, "  lost: %s\n", e)
	}
	rate := 0.0
	if res.submitted > 0 {
		rate = 100 * float64(res.rejected) / float64(res.submitted)
	}
	fmt.Fprintf(w, "429s        %d (%.1f%% of submissions; %.1fs honored backoff)\n",
		res.rejected, rate, res.waited.Seconds())
	if s.Count > 0 {
		fmt.Fprintf(w, "latency     p50 %s  p99 %s  mean %s  max %s\n",
			time.Duration(s.P50).Round(time.Millisecond),
			time.Duration(s.P99).Round(time.Millisecond),
			time.Duration(int64(s.Mean)).Round(time.Millisecond),
			time.Duration(s.Max).Round(time.Millisecond))
	}
	for _, line := range scrapeMetrics(target) {
		fmt.Fprintf(w, "target      %s\n", line)
	}
}

// scrapeMetrics pulls the target's cache and rejection counters so
// the run's server-side story (hit rate, disk hits, 429s) lands in the
// same report as the client-side latency.
func scrapeMetrics(target string) []string {
	resp, err := http.Get(strings.TrimSuffix(target, "/") + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil
	}
	var out []string
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		for _, want := range []string{"mopac_cache_", "mopac_jobs_rejected_total"} {
			if strings.HasPrefix(line, want) {
				out = append(out, line)
				break
			}
		}
	}
	return out
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
