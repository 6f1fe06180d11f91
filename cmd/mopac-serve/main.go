// Command mopac-serve runs the simulation service: a worker pool, a
// result cache backed by the persistent result store, and the /v1 JSON
// API. `mopac-batch -server` and `mopac-loadgen` are its clients.
//
//	mopac-serve -addr :8080
//
//	curl -X POST localhost:8080/v1/jobs?wait=1 \
//	     -d '{"design":"mopac-d","workload":"lbm","trh":500,"seed":1}'
//	curl localhost:8080/metrics
//
// SIGINT/SIGTERM drains gracefully: in-flight runs finish (up to
// -drain) before stragglers are cancelled cooperatively.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mopac/internal/buildinfo"
	"mopac/internal/service"
	"mopac/internal/store"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 64, "queued-job capacity before 429s")
		cache    = flag.Int("cache", 256, "result-cache entries")
		storeDir = flag.String("store", "", "result store directory (default: user cache dir, e.g. ~/.cache/mopac)")
		noStore  = flag.Bool("no-store", false, "disable the persistent result store")
		drain    = flag.Duration("drain", 30*time.Second, "graceful-drain budget on shutdown")
		quiet    = flag.Bool("q", false, "suppress request/job logs")
		version  = flag.Bool("version", false, "print build information and exit")
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

	// The disk tier makes cached summaries survive restarts and LRU
	// evictions. It is an accelerator, so failure to open it degrades
	// rather than refusing to serve.
	var disk service.DiskStore
	if !*noStore {
		dir := *storeDir
		var err error
		if dir == "" {
			dir, err = store.DefaultDir()
		}
		if err == nil {
			var st *store.Store
			if st, err = store.Open(dir, service.StoreSchema, buildinfo.Get().Revision); err == nil {
				disk = st
				if logger != nil {
					logger.Info("result store open", "dir", st.Dir())
				}
			}
		}
		if err != nil && logger != nil {
			logger.Warn("result store disabled", "err", err)
		}
	}

	srv := service.New(service.Options{
		Workers:   *workers,
		Queue:     *queue,
		CacheSize: *cache,
		Store:     disk,
		Logger:    logger,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	errc := make(chan error, 1)
	go func() {
		if logger != nil {
			logger.Info("mopac-serve listening", "addr", *addr, "queue", *queue)
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
			logger.Info("draining", "signal", sig.String(), "budget", drain.String())
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, err)
	}
	if err := srv.Shutdown(ctx); err != nil && logger != nil {
		logger.Warn("drain budget exhausted; in-flight runs were cancelled", "err", err)
	}
}
