// The node subcommand: one member of a vprof cluster. A node is a thin
// internal-API server over a local profile store; the public front end is a
// separate `vprof serve -cluster` process that shards, replicates, and
// merges across nodes. Nodes are trusted infrastructure — they bind to
// internal addresses and speak only to routers.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vprof/internal/cluster"
	"vprof/internal/obs"
	"vprof/internal/store"
)

func cmdNode(args []string) error {
	fs := flag.NewFlagSet("node", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7081", "listen address (internal API)")
	storeDir := fs.String("store", "vprof-node", "profile store directory")
	id := fs.String("id", "", "stable node name (required; placement hashes it)")
	useBugs := fs.Bool("bugs", false, "resolve the built-in bug workloads for corpus folding (default when no programs are given)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "grace period for in-flight requests on SIGTERM")
	logLevel := fs.String("log-level", "info", "log verbosity: debug, info, warn, error")
	logFormat := fs.String("log-format", "text", "log encoding: text or json")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *id == "" {
		return usageError{fmt.Errorf("node: -id is required (stable across restarts)")}
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return usageError{err}
	}
	logger, err := obs.NewLogger(os.Stderr, level, *logFormat)
	if err != nil {
		return usageError{err}
	}

	reg := obs.NewRegistry()
	st, err := store.Open(*storeDir, store.Options{Metrics: reg})
	if err != nil {
		return err
	}
	defer st.Close()
	if rec := st.Recovery(); rec != nil && !rec.Clean() {
		logger.Warn("node store recovered at startup",
			"dropped_records", rec.DroppedRecords,
			"quarantined", len(rec.Quarantined),
			"truncated_bytes", rec.TruncatedBytes)
	}
	resolver, err := buildResolver(fs.Args(), *useBugs)
	if err != nil {
		return usageError{err}
	}
	node, err := cluster.NewNode(cluster.NodeConfig{
		ID: *id, Store: st, Resolver: resolver, Logger: logger, Metrics: reg,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Info("vprof node listening", "id", *id, "addr", ln.Addr().String(), "store", *storeDir)
	fmt.Printf("vprof node %s listening on http://%s (store %s)\n", *id, ln.Addr(), *storeDir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hs := &http.Server{Handler: node.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
		stop()
		logger.Info("node shutting down", "drain_timeout", drainTimeout.String())
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := hs.Shutdown(drainCtx); err != nil {
			hs.Close()
		}
		if err := st.Flush(); err != nil {
			return err
		}
		logger.Info("node shutdown complete")
		return nil
	}
}
