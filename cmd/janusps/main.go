// Command janusps runs the sharded parameter server for distributed
// data-parallel training (internal/ps): K logical parameter shards behind an
// HTTP+JSON protocol with versioned pulls and staleness-bounded gradient
// pushes, applying a configurable optimizer (SGD, momentum, or Adam)
// server-side with gradient averaging across workers. Optimizer state lives
// here, keyed by variable name, so workers stay stateless.
//
//	janusps -addr :8081 -shards 4 -lr 0.2 -optimizer adam -workers 4 -staleness 2
//
// Endpoints (all JSON; tensors are {"shape": [...], "data": [...]}):
//
//	GET  /ps/v1/shards                                         shard count
//	POST /ps/v1/pull  {"shard", "have"}                        versioned parameter fetch
//	POST /ps/v1/push  {"shard", "step", "grads"}               gradient push (409 = stale)
//	POST /ps/v1/init  {"params"}                               set-if-absent registration
//	GET  /ps/v1/stats                                          server counters
//	GET  /metrics                                              Prometheus text exposition
//	GET  /healthz                                              liveness
//
// Workers connect through the public handle API — janus.NewCluster with
// TrainOptions.ServerAddr pointed here — or directly with ps.NewClient /
// ps.Worker; omitting ServerAddr gives the in-process equivalent. See
// README.md for the quickstart.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/ps"
)

func main() {
	addr := flag.String("addr", ":8081", "listen address")
	shards := flag.Int("shards", 4, "logical parameter shards")
	lr := flag.Float64("lr", 0.1, "server-side learning rate")
	optimizer := flag.String("optimizer", "sgd", "server-side optimizer: sgd, momentum, or adam")
	workers := flag.Int("workers", 1, "data-parallel replicas (gradients are averaged across them)")
	staleness := flag.Int("staleness", 2, "max worker-step lag before a push is rejected (-1 = unbounded)")
	leaseTTL := flag.Duration("lease-ttl", 2*time.Second, "worker lease TTL: a worker silent this long is expired and its data coverage redistributed")
	snapshotEvery := flag.Int("snapshot-every", 8, "take a shard failover snapshot every N applied pushes (negative disables)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "max wait for in-flight requests on shutdown")
	flag.Parse()

	server, err := ps.NewServer(ps.Config{
		Shards: *shards, LR: *lr, Workers: *workers, Staleness: *staleness,
		Optimizer: *optimizer, LeaseTTL: *leaseTTL, SnapshotEvery: *snapshotEvery,
	})
	if err != nil {
		log.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/", ps.NewHandler(server))
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		log.Printf("janusps: pprof enabled at /debug/pprof/")
	}

	hs := &http.Server{Addr: *addr, Handler: mux}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("janusps: serving on %s (%d shards, lr %g, %s, %d workers, staleness %d)",
			*addr, *shards, *lr, *optimizer, *workers, *staleness)
		errCh <- hs.ListenAndServe()
	}()

	// Graceful shutdown: stop accepting on SIGINT/SIGTERM, drain in-flight
	// pushes/pulls up to -drain-timeout, then flush a final metrics
	// snapshot to stderr.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	case sig := <-sigCh:
		log.Printf("janusps: %v: draining (up to %v)", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("janusps: shutdown: %v", err)
		}
	}
	fmt.Fprintln(os.Stderr, "# janusps: final metrics snapshot")
	if err := server.Registry().WriteText(os.Stderr); err != nil {
		log.Printf("janusps: metrics flush: %v", err)
	}
}
