// Command janusd serves minipy models over HTTP+JSON. It fronts the
// internal/serve session pool: N JANUS engine workers share one parameter
// store and one compiled-graph cache. Named-feed calls with the same function
// signature that arrive within 1 ms of each other, or queue up while every
// worker is busy, run as one batched graph execution (at most -max-batch
// requests) on the next worker that frees up.
//
//	janusd -addr :8080 -pool 8 -max-batch 8 -program model.py
//
// Endpoints (all JSON):
//
//	POST /v1/load     {"program": "..."}                 load/extend the model
//	POST /v1/sessions {}                                 open a client session
//	DELETE /v1/sessions/{id}                             free a session
//	POST /v1/run      {"session"?, "program": "..."}     run an ad-hoc script
//	POST /v1/call     {"session"?, "fn", "args": [...]}  call a loaded function
//	POST /v1/call     {"fn", "feeds": {"x": [[...]]}}    batched named-feed call
//	GET  /v1/stats                                       engine + serving stats
//	GET  /v1/cache                                       graph-cache inspection
//	GET  /healthz                                        liveness
//
// Session state is session-affine: globals bound by a session's /v1/run
// scripts follow the session across workers (sessionless /v1/run and
// /v1/call are stateless and fully parallel). Under overload requests fail
// fast with 429 (queue full) or 503 (worker wait timeout); unknown
// functions are 404 and client-abandoned executions are 499.
//
// Example:
//
//	curl -s localhost:8080/v1/call \
//	     -d '{"fn": "predict", "feeds": {"x": [[1.0, 2.0]]}}'
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

	janus "repro"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	pool := flag.Int("pool", 0, "pool size: engine workers serving concurrent requests (default 4)")
	maxBatch := flag.Int("max-batch", 8, "max queued same-signature requests a free worker runs as one batch")
	maxQueue := flag.Int("max-queue", 0, "max requests waiting for a worker before 429 (0 = 16x workers)")
	acquireTimeout := flag.Duration("acquire-timeout", 10*time.Second, "max wait for a worker before 503")
	cacheCapacity := flag.Int("cache-capacity", 0, "max cached compiled graphs, LRU-evicted (0 = unlimited)")
	bucketBatch := flag.Bool("bucket-batches", false, "pad batched executions to power-of-two row buckets so variable batch sizes share compiled graphs")
	maxBucket := flag.Int("max-bucket", 64, "largest padded row bucket (rounded up to a power of two)")
	snapshotDir := flag.String("snapshot-dir", "", "directory for the compiled-graph snapshot artifact: loaded at boot (after -program), flushed periodically and on shutdown")
	snapshotInterval := flag.Duration("snapshot-interval", time.Minute, "how often to flush the snapshot artifact (with -snapshot-dir)")
	program := flag.String("program", "", "minipy program to load at startup")
	engine := flag.String("engine", "janus", "engine: janus|imperative|trace")
	lr := flag.Float64("lr", 0.1, "learning rate for optimize()")
	profileIters := flag.Int("profile-iters", 3, "profiling iterations before conversion")
	seed := flag.Uint64("seed", 0, "RNG seed (0 = unseeded)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "max wait for in-flight requests on shutdown")
	flag.Parse()

	poolSize := *pool
	if poolSize == 0 {
		poolSize = 4
	}
	opts := janus.ServerOptions{
		PoolSize:       poolSize,
		MaxBatch:       *maxBatch,
		MaxQueue:       *maxQueue,
		AcquireTimeout: *acquireTimeout,
		CacheCapacity:  *cacheCapacity,
		BucketBatch:    *bucketBatch,
		MaxBucket:      *maxBucket,
	}
	opts.LearningRate = *lr
	opts.ProfileIterations = *profileIters
	opts.Seed = *seed
	switch *engine {
	case "janus":
		opts.Engine = janus.EngineJanus
	case "imperative":
		opts.Engine = janus.EngineImperative
	case "trace":
		opts.Engine = janus.EngineTrace
	default:
		fmt.Fprintf(os.Stderr, "janusd: unknown engine %q\n", *engine)
		os.Exit(2)
	}

	srv := janus.NewServer(opts)
	if *program != "" {
		src, err := os.ReadFile(*program)
		if err != nil {
			log.Fatalf("janusd: read program: %v", err)
		}
		out, err := srv.Load(string(src))
		if err != nil {
			log.Fatalf("janusd: load program: %v", err)
		}
		if out != "" {
			fmt.Print(out)
		}
		log.Printf("janusd: loaded %s", *program)
	}

	// Warm boot: restore the compiled-graph snapshot after the program is
	// loaded (artifact function identity is resolved against the loaded
	// sources). A missing or rejected artifact just means a cold boot.
	var snapPath string
	stopFlush := make(chan struct{})
	if *snapshotDir != "" {
		snapPath = janus.SnapshotPath(*snapshotDir)
		if n, err := srv.LoadSnapshot(snapPath); err != nil {
			log.Printf("janusd: snapshot: %v (serving cold)", err)
		} else {
			log.Printf("janusd: warm boot: restored %d compiled graphs from %s", n, snapPath)
		}
		go func() {
			tick := time.NewTicker(*snapshotInterval)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					if n, err := srv.SaveSnapshot(snapPath); err != nil {
						log.Printf("janusd: snapshot flush: %v", err)
					} else {
						log.Printf("janusd: snapshot flushed (%d compiled graphs)", n)
					}
				case <-stopFlush:
					return
				}
			}
		}()
	}

	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		log.Printf("janusd: pprof enabled at /debug/pprof/")
	}

	hs := &http.Server{Addr: *addr, Handler: mux}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("janusd: serving on %s (pool %d, max batch %d)", *addr, poolSize, *maxBatch)
		errCh <- hs.ListenAndServe()
	}()

	// Graceful shutdown: stop accepting on SIGINT/SIGTERM, drain in-flight
	// requests up to -drain-timeout, then flush a final metrics snapshot to
	// stderr so a terminated run still leaves its counters behind.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	case sig := <-sigCh:
		log.Printf("janusd: %v: draining (up to %v)", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("janusd: shutdown: %v", err)
		}
	}
	close(stopFlush)
	if snapPath != "" {
		// Final snapshot flush: whatever the pool compiled this run boots
		// the next replica warm.
		if n, err := srv.SaveSnapshot(snapPath); err != nil {
			log.Printf("janusd: final snapshot flush: %v", err)
		} else {
			log.Printf("janusd: final snapshot flushed (%d compiled graphs) to %s", n, snapPath)
		}
	}
	fmt.Fprintln(os.Stderr, "# janusd: final metrics snapshot")
	if err := srv.WriteMetrics(os.Stderr); err != nil {
		log.Printf("janusd: metrics flush: %v", err)
	}
}
