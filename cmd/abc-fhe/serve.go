package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	abcfhe "repro"
	"repro/internal/serve"
)

// runServe hosts the throughput service (internal/serve): session
// registration over evaluation-key blobs, the /v1/eval/{op} surface,
// /metrics and /debug/pprof, with a byte-budgeted evaluation-key cache
// and bounded-queue backpressure. SIGTERM/SIGINT starts a graceful
// drain: stop accepting, finish queued work, then tear down.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8791", "listen address (host:port; :0 picks a free port)")
	cacheBytes := fs.Int64("cache-bytes", 1<<30, "evaluation-key cache budget in bytes (oversized blobs get 413)")
	maxInflight := fs.Int("max-inflight", 256, "accepted-but-unfinished request bound; excess gets 429 + Retry-After")
	workers := fs.Int("workers", 2, "concurrent evaluations (each op also fans across lanes)")
	lanes := fs.Int("lanes", 0, "software PNL lanes per op (0 = GOMAXPROCS, 1 = serial)")
	spoolDir := fs.String("spool-dir", "", "directory for evicted key blobs (default: private temp dir)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "max time to finish in-flight work on shutdown")
	if err := fs.Parse(args); err != nil {
		return err
	}

	svc, err := serve.New(serve.Config{
		CacheBytes:  *cacheBytes,
		MaxInflight: *maxInflight,
		Workers:     *workers,
		SpoolDir:    *spoolDir,
		Options:     []abcfhe.Option{abcfhe.WithWorkers(*lanes)},
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		svc.Close()
		return err
	}
	httpSrv := &http.Server{Handler: svc, ReadHeaderTimeout: 10 * time.Second}
	logger := log.New(os.Stderr, "abc-fhe serve: ", log.LstdFlags)
	logger.Printf("listening on http://%s (cache %.1f MiB, max-inflight %d, workers %d)",
		ln.Addr(), float64(*cacheBytes)/(1<<20), *maxInflight, *workers)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		svc.Close()
		return fmt.Errorf("serve: %w", err)
	case got := <-sig:
		logger.Printf("%v: draining (timeout %s)", got, *drainTimeout)
		svc.Drain() // new sessions get 503 while queued work completes
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Printf("drain timeout: %v", err)
			httpSrv.Close()
		}
		if err := svc.Close(); err != nil {
			return err
		}
		logger.Printf("drained")
		return nil
	}
}
