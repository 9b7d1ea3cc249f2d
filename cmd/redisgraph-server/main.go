// Command redisgraph-server runs the Redis-like server with the graph
// module loaded. Its four flags are deployment settings: listen address,
// THREAD_COUNT, per-query timeout and snapshot file. Speak to it with
// cmd/redisgraph-cli or any RESP client:
//
//	redisgraph-server -addr :6379 -threads 8
//	redisgraph-cli GRAPH.QUERY social "CREATE (:Person {name: 'alice'})"
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"

	"redisgraph/internal/server"
)

func main() {
	addr := flag.String("addr", ":6379", "listen address")
	threads := flag.Int("threads", 8, "THREAD_COUNT: queries that may execute at once, each on its connection's goroutine (more wait up to ADMISSION_TIMEOUT, then get -BUSY)")
	timeout := flag.Duration("timeout", 0, "per-query timeout (0 = none)")
	snapshot := flag.String("snapshot", "", "snapshot file: loaded at start, written by SAVE and at shutdown")
	flag.Parse()

	s := server.New(server.Options{
		Addr:         *addr,
		ThreadCount:  *threads,
		QueryTimeout: *timeout,
		SnapshotPath: *snapshot,
	})
	if err := s.Start(); err != nil {
		log.Fatalf("redisgraph-server: %v", err)
	}
	log.Printf("redisgraph-server listening on %s (THREAD_COUNT=%d)", s.Addr(), *threads)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("shutting down")
	if *snapshot != "" {
		if err := s.SaveSnapshot(); err != nil {
			log.Printf("snapshot on shutdown failed: %v", err)
		}
	}
	s.Close()
}
