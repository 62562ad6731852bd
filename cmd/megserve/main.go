// Command megserve is the simulation service: it accepts declarative
// simulation specs over HTTP, schedules them on a bounded worker pool,
// deduplicates identical in-flight specs (single-flight), serves
// repeated specs from a content-addressed result cache, and streams
// per-round progress over SSE.
//
//	megserve -addr :8080 -jobs 2 -cache-entries 256 -cache-dir /var/cache/meg
//
// API:
//
//	POST   /v1/jobs             submit a spec JSON, returns {id, hash, status, outcome}
//	GET    /v1/jobs/{id}        status + progress + result (when done)
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/jobs/{id}/events SSE progress stream
//	GET    /v1/cache/{hash}     cached result by content address
//	GET    /healthz             liveness + counters (503 while draining)
//	GET    /metrics             Prometheus text exposition
//	GET    /debug/pprof/*       runtime profiles (with -pprof)
//
// See the README's "Running the service" section for the spec schema
// and curl examples.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"meg/internal/serve"
)

// readHeaderTimeout bounds how long a client may take to send its
// request headers, so slow or idle connections cannot pin the server's
// connection slots. Request bodies and SSE streams are not limited by it.
const readHeaderTimeout = 5 * time.Second

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	jobs := flag.Int("jobs", 2, "total concurrent simulation jobs across all shards (each job parallelizes its trials internally)")
	shards := flag.Int("shards", 1, "worker-pool shards; jobs route to shards by spec content hash")
	queue := flag.Int("queue", 64, "pending job queue capacity per shard")
	cacheEntries := flag.Int("cache-entries", 256, "in-memory result cache entries (LRU)")
	cacheDir := flag.String("cache-dir", "", "directory for the on-disk result cache (empty = memory only)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	flag.Parse()

	cache, err := serve.NewCache(*cacheEntries, *cacheDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "megserve: %v\n", err)
		os.Exit(1)
	}
	exec := &serve.Executor{}
	sched := serve.NewShardedScheduler(*shards, *jobs, *queue, exec, cache)
	sched.Instrument(serve.NewMetrics())
	exec.Metrics = sched.Metrics()
	api := serve.NewServer(sched)
	if *pprofOn {
		api.EnablePprof()
	}
	srv := &http.Server{Addr: *addr, Handler: api.Handler(), ReadHeaderTimeout: readHeaderTimeout}

	// Graceful shutdown: stop accepting, let in-flight responses end,
	// cancel running jobs, drain workers.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	//meg:allow-go signal watcher for graceful shutdown; never touches simulation state
	go func() {
		<-stop
		fmt.Fprintln(os.Stderr, "megserve: shutting down")
		sched.BeginDrain() // flips /healthz to 503 before the listener stops
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		sched.Close()
		close(done)
	}()

	fmt.Printf("megserve: listening on %s (jobs=%d shards=%d queue=%d cache=%d dir=%q)\n",
		*addr, *jobs, *shards, *queue, *cacheEntries, *cacheDir)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "megserve: %v\n", err)
		os.Exit(1)
	}
	<-done
}
