// Command mopac-serve runs the simulation service, in one of three
// roles:
//
//   - standalone (default): the single-process service — worker pool,
//     result cache, /v1 JSON API.
//   - worker: the same service, registered with a fleet coordinator
//     (heartbeats, drain-aware deregistration) and mounting the
//     coordinator's shared result store as a remote cache tier behind
//     the local one.
//   - coordinator: the fleet front door — admits tenants, dispatches
//     jobs to workers by runkey-consistent hashing (cache affinity),
//     fails over to ring successors when a worker dies mid-job,
//     streams job progress over SSE, and serves the shared store.
//
// A localhost fleet:
//
//	mopac-serve -role coordinator -addr :8080
//	mopac-serve -role worker -addr :8091 -coordinator http://localhost:8080
//	mopac-serve -role worker -addr :8092 -coordinator http://localhost:8080
//
//	curl -X POST localhost:8080/v1/jobs?wait=1 \
//	     -d '{"design":"mopac-d","workload":"lbm","trh":500,"seed":1}'
//	curl localhost:8080/metrics
//
// SIGINT/SIGTERM drains gracefully: workers deregister first so the
// coordinator stops dispatching to them, then in-flight runs finish
// (up to -drain) before stragglers are cancelled cooperatively.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mopac/internal/buildinfo"
	"mopac/internal/fleet"
	"mopac/internal/service"
	"mopac/internal/store"
)

func main() {
	var (
		role     = flag.String("role", "standalone", "standalone | worker | coordinator")
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 64, "queued-job capacity before 429s")
		cache    = flag.Int("cache", 256, "result-cache entries")
		storeDir = flag.String("store", "", "result store directory (default: user cache dir, e.g. ~/.cache/mopac)")
		noStore  = flag.Bool("no-store", false, "disable the persistent result store")
		drain    = flag.Duration("drain", 30*time.Second, "graceful-drain budget on shutdown")
		quiet    = flag.Bool("q", false, "suppress request/job logs")
		version  = flag.Bool("version", false, "print build information and exit")

		// Worker-role flags.
		coordinator = flag.String("coordinator", "", "coordinator base URL (worker role)")
		advertise   = flag.String("advertise", "", "base URL the coordinator should dispatch to (default: derived from -addr)")
		workerID    = flag.String("worker-id", "", "stable ring identity (default: the advertise URL)")
		heartbeat   = flag.Duration("heartbeat", 2*time.Second, "registration heartbeat interval (worker role)")
		remoteStore = flag.String("remote-store", "", "remote store base URL (default: <coordinator>/fleet/v1/store; \"off\" disables)")
		remoteTmo   = flag.Duration("remote-store-timeout", store.DefaultRemoteTimeout, "remote store operation timeout")

		// Coordinator-role flags.
		workerTTL   = flag.Duration("worker-ttl", 10*time.Second, "drop workers silent for this long (coordinator role)")
		failovers   = flag.Int("failover", 2, "ring successors to retry a job on after its primary fails")
		tenantRate  = flag.Float64("tenant-rate", 0, "per-tenant admitted jobs/second (0 = no quotas)")
		tenantBurst = flag.Float64("tenant-burst", 0, "per-tenant burst capacity (0 = max(1, rate))")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String())
		return
	}

	var logger *slog.Logger
	if !*quiet {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}

	switch *role {
	case "coordinator":
		runCoordinator(logger, *addr, *storeDir, *noStore, *workerTTL, *failovers, *tenantRate, *tenantBurst)
	case "standalone", "worker":
		if *role == "worker" && *coordinator == "" {
			fmt.Fprintln(os.Stderr, "mopac-serve: -role worker requires -coordinator")
			os.Exit(2)
		}
		if *role == "standalone" {
			*coordinator = ""
		}
		runService(logger, serviceConfig{
			addr: *addr, workers: *workers, queue: *queue,
			cache: *cache, storeDir: *storeDir, noStore: *noStore, drain: *drain,
			coordinator: *coordinator, advertise: *advertise, workerID: *workerID,
			heartbeat: *heartbeat, remoteStore: *remoteStore, remoteTimeout: *remoteTmo,
		})
	default:
		fmt.Fprintf(os.Stderr, "mopac-serve: unknown role %q (want standalone, worker, or coordinator)\n", *role)
		os.Exit(2)
	}
}

// runCoordinator serves the fleet front door until a signal stops it.
func runCoordinator(logger *slog.Logger, addr, storeDir string, noStore bool,
	ttl time.Duration, failovers int, rate, burst float64) {
	opts := fleet.Options{
		Quota:        fleet.QuotaConfig{Rate: rate, Burst: burst},
		WorkerTTL:    ttl,
		MaxFailovers: failovers,
		Logger:       logger,
		Revision:     buildinfo.Get().Revision,
	}
	if !noStore {
		dir := storeDir
		var err error
		if dir == "" {
			dir, err = store.DefaultDir()
		}
		if err != nil {
			if logger != nil {
				logger.Warn("shared store disabled", "err", err)
			}
		} else {
			opts.StoreDir = dir
			if logger != nil {
				logger.Info("shared store serving", "dir", dir)
			}
		}
	}
	coord, err := fleet.NewCoordinator(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	httpSrv := &http.Server{Addr: addr, Handler: coord.Handler()}
	errc := make(chan error, 1)
	go func() {
		if logger != nil {
			logger.Info("mopac-serve coordinator listening", "addr", addr)
		}
		errc <- httpSrv.ListenAndServe()
	}()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	case sig := <-sigc:
		if logger != nil {
			logger.Info("coordinator shutting down", "signal", sig.String())
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, err)
	}
	coord.Close()
}

type serviceConfig struct {
	addr, storeDir                   string
	workers, queue, cache            int
	noStore                          bool
	drain                            time.Duration
	coordinator, advertise, workerID string
	heartbeat, remoteTimeout         time.Duration
	remoteStore                      string
}

// runService serves the simulation API (standalone or worker role).
func runService(logger *slog.Logger, cfg serviceConfig) {
	// The disk tier makes cached summaries survive restarts and LRU
	// evictions; in a fleet a remote tier behind it shares warm results
	// across workers. Both are accelerators, so failure to open either
	// degrades rather than refusing to serve.
	var local store.Backend
	if !cfg.noStore {
		dir := cfg.storeDir
		var err error
		if dir == "" {
			dir, err = store.DefaultDir()
		}
		if err == nil {
			var st *store.Store
			if st, err = store.Open(dir, service.StoreSchema, buildinfo.Get().Revision); err == nil {
				local = st
				if logger != nil {
					logger.Info("result store open", "dir", st.Dir())
				}
			}
		}
		if err != nil && logger != nil {
			logger.Warn("result store disabled", "err", err)
		}
	}
	var remote store.Backend
	if cfg.coordinator != "" && cfg.remoteStore != "off" {
		base := cfg.remoteStore
		if base == "" {
			base = strings.TrimSuffix(cfg.coordinator, "/") + "/fleet/v1/store"
		}
		r, err := store.OpenRemote(strings.TrimSuffix(base, "/")+"/"+service.StoreSchema, cfg.remoteTimeout)
		if err != nil {
			if logger != nil {
				logger.Warn("remote store disabled", "err", err)
			}
		} else {
			remote = r
			if logger != nil {
				logger.Info("remote store tier", "base", base)
			}
		}
	}
	var disk service.DiskStore
	if local != nil || remote != nil {
		disk = store.NewTiered(local, remote)
	}

	srv := service.New(service.Options{
		Workers:   cfg.workers,
		Queue:     cfg.queue,
		CacheSize: cfg.cache,
		Store:     disk,
		Logger:    logger,
	})
	httpSrv := &http.Server{Addr: cfg.addr, Handler: srv.Handler()}

	var agent *fleet.Agent
	if cfg.coordinator != "" {
		adv := cfg.advertise
		if adv == "" {
			adv = deriveAdvertise(cfg.addr)
		}
		var err error
		agent, err = fleet.NewAgent(fleet.AgentOptions{
			Coordinator: cfg.coordinator,
			ID:          cfg.workerID,
			URL:         adv,
			Interval:    cfg.heartbeat,
			Logger:      logger,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		agent.Start()
		if logger != nil {
			logger.Info("joining fleet", "coordinator", cfg.coordinator, "advertise", adv, "id", agent.ID())
		}
	}

	errc := make(chan error, 1)
	go func() {
		if logger != nil {
			logger.Info("mopac-serve listening", "addr", cfg.addr, "queue", cfg.queue)
		}
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	case sig := <-sigc:
		if logger != nil {
			logger.Info("draining", "signal", sig.String(), "budget", cfg.drain.String())
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	if agent != nil {
		// Deregister first: the coordinator stops dispatching here, so
		// the drain below races nothing.
		if err := agent.Stop(ctx); err != nil && logger != nil {
			logger.Warn("fleet deregistration failed", "err", err)
		}
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, err)
	}
	if err := srv.Shutdown(ctx); err != nil && logger != nil {
		logger.Warn("drain budget exhausted; in-flight runs were cancelled", "err", err)
	}
}

// deriveAdvertise turns a listen address into a dispatchable URL: a
// bare port listens on every interface, but localhost is the only
// address another local process can be told to call.
func deriveAdvertise(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "http://" + addr
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}
