// Command flpserve runs exploration-as-a-service: the Lemma 2 census,
// valency classification, and Theorem 1 adversary engines behind a REST
// API with async jobs, streamed progress, a shared atlas cache, Prometheus
// metrics, and graceful drain on SIGINT/SIGTERM.
//
// Usage:
//
//	flpserve -listen 127.0.0.1:8080 -pool 4
//
//	curl -s localhost:8080/v1/protocols
//	curl -s -XPOST localhost:8080/v1/census -d '{"protocol":"naivemajority","n":3}'
//	curl -s localhost:8080/v1/jobs/census-1?wait=1
//	curl -s localhost:8080/v1/jobs/census-1/events
//	curl -s localhost:8080/metrics
//
// Valency answers are explore.ClassifyRootCached's at each request's
// budget. On a finite protocol that is what flpcheck's Lemma 2 table
// prints; an unbounded one (paxos, benor) flpcheck classifies by directed
// probes instead, so a served answer can be unknown where flpcheck prints
// bivalent. The service adds job management and cross-request atlas
// caching.
//
// -pool is how many jobs run at once; inside a job the GOMAXPROCS
// environment variable is the one parallelism setting.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/flpsim/flp/internal/serve"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:8080", "address to serve on")
		pool     = flag.Int("pool", 2, "job pool size (queries executing concurrently)")
		depth    = flag.Int("queue", 64, "admission queue depth (waiting jobs beyond this get 503)")
		atlasDir = flag.String("atlas-dir", "", "directory for the persistent atlas store and the durable job journal; atlases and admitted jobs survive restarts ('' = memory-only cache, nothing survives)")
	)
	flag.Parse()

	s, err := serve.New(serve.Options{
		Workers: *pool, QueueDepth: *depth, AtlasDir: *atlasDir,
		Log: func(format string, args ...any) { fmt.Printf(format+"\n", args...) },
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "flpserve: %v\n", err)
		os.Exit(1)
	}
	hs := &http.Server{Addr: *listen, Handler: s.Handler()}

	// SIGINT/SIGTERM: stop admitting, finish or cancel jobs, flush
	// responses, then close the listener.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		v := <-sig
		fmt.Printf("flpserve: %v received, draining\n", v)
		start := time.Now()
		s.Drain() // every admitted job terminal when this returns
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(ctx) // flush in-flight responses, stop the listener
		fmt.Printf("flpserve: drained in %s\n", time.Since(start).Round(time.Millisecond))
		close(done)
	}()

	fmt.Printf("flpserve: serving on %s (pool %d, queue %d)\n", *listen, *pool, *depth)
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(os.Stderr, "flpserve: %v\n", err)
		os.Exit(1)
	}
	<-done
}
