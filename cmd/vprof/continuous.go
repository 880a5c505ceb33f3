// Continuous-mode subcommands: a profile-store daemon (serve), a profiling
// uploader (push), and a query front end (query). Together they turn the
// one-shot profile/analyze workflow into a service: many clients push
// normal and candidate runs concurrently, and diagnoses run server-side
// against each workload's stored baseline corpus.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	vprof "vprof"
	"vprof/internal/cluster"
	"vprof/internal/obs"
	"vprof/internal/parallel"
	"vprof/internal/profilefmt"
	"vprof/internal/sampler"
	"vprof/internal/service"
	"vprof/internal/store"
	"vprof/internal/vm"
)

// buildResolver assembles the serve resolver: explicitly listed programs
// shadow the built-in bug registry; with no programs the registry is the
// default so `vprof serve` works out of the box.
func buildResolver(progFiles []string, useBugs bool) (service.Resolver, error) {
	var rs []service.Resolver
	if len(progFiles) > 0 {
		pr, err := service.NewProgramResolver(progFiles)
		if err != nil {
			return nil, err
		}
		rs = append(rs, pr)
	}
	if useBugs || len(progFiles) == 0 {
		rs = append(rs, service.NewBugsResolver())
	}
	return service.NewMultiResolver(rs...), nil
}

// parseClusterSpec turns "-cluster id=url,id2=url2" into node references.
// IDs must be unique: placement hashes the ID, so a duplicate would silently
// halve the replica count for every shard the pair owns.
func parseClusterSpec(spec string) ([]cluster.NodeRef, error) {
	var refs []cluster.NodeRef
	seen := make(map[string]bool)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, base, ok := strings.Cut(part, "=")
		if !ok || id == "" || base == "" {
			return nil, fmt.Errorf("serve: bad -cluster entry %q (want id=http://host:port)", part)
		}
		if seen[id] {
			return nil, fmt.Errorf("serve: duplicate cluster node id %q", id)
		}
		seen[id] = true
		refs = append(refs, cluster.NodeRef{ID: id, Base: strings.TrimRight(base, "/")})
	}
	if len(refs) == 0 {
		return nil, fmt.Errorf("serve: -cluster lists no nodes")
	}
	return refs, nil
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "listen address")
	storeDir := fs.String("store", "vprof-store", "profile store directory")
	clusterSpec := fs.String("cluster", "", `route to cluster nodes instead of a local store: "id=http://host:port,id2=url2,..."`)
	replicas := fs.Int("replicas", 3, "cluster copies per shard (clamped to node count)")
	writeQuorum := fs.Int("write-quorum", 0, "cluster acks required per ingest (0 = majority of replicas)")
	shards := fs.Int("shards", cluster.DefaultShards, "cluster keyspace partitions (all routers must agree)")
	useBugs := fs.Bool("bugs", false, "also serve the built-in bug workloads (default when no programs are given)")
	workers := fs.Int("workers", 4, "bounded ingest/diagnose worker pool size")
	analysisWorkers := fs.Int("analysis-workers", 0, "per-diagnosis analysis worker pool (0 = VPROF_WORKERS or GOMAXPROCS, 1 = sequential)")
	top := fs.Int("top", 10, "default report rows")
	baselineCap := fs.Int("baseline-cap", 16, "rolling baseline corpus size per workload")
	requestTimeout := fs.Duration("request-timeout", 0, "per-request deadline (0 = none)")
	maxQueue := fs.Int("max-queue", 0, "admission queue bound before shedding with 429 (0 = default)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "grace period for in-flight requests on SIGTERM")
	logLevel := fs.String("log-level", "info", "log verbosity: debug, info, warn, error")
	logFormat := fs.String("log-format", "text", "log encoding: text or json")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return usageError{err}
	}
	logger, err := obs.NewLogger(os.Stderr, level, *logFormat)
	if err != nil {
		return usageError{err}
	}

	// One registry spans the whole process: HTTP + diagnose series from the
	// service, segment/cache series from the store, fan-out series from the
	// analysis worker pool, self-profiling series from the sampler. All of
	// it is exposed at GET /metrics.
	reg := obs.NewRegistry()
	parallel.Instrument(reg)
	sampler.Instrument(reg)

	params := vprof.DefaultParams()
	params.Workers = *analysisWorkers
	cfg := service.Config{
		Workers: *workers, Params: &params, Top: *top,
		RequestTimeout: *requestTimeout, MaxQueue: *maxQueue,
		Metrics: reg, Logger: logger,
	}
	backendDesc := "store " + *storeDir
	if *clusterSpec != "" {
		// Cluster mode: this process owns no store — it shards, replicates
		// and merges across the listed node processes.
		refs, err := parseClusterSpec(*clusterSpec)
		if err != nil {
			return usageError{err}
		}
		router, err := cluster.NewRouter(cluster.RouterConfig{
			Nodes: refs, Replicas: *replicas, WriteQuorum: *writeQuorum,
			Shards: *shards, BaselineCap: *baselineCap,
			Metrics: reg, Logger: logger,
		})
		if err != nil {
			return err
		}
		cfg.Backend = router
		backendDesc = fmt.Sprintf("cluster of %d node(s)", len(refs))
	} else {
		st, err := store.Open(*storeDir, store.Options{BaselineCap: *baselineCap, Metrics: reg})
		if err != nil {
			return err
		}
		defer st.Close()
		if rec := st.Recovery(); rec != nil && !rec.Clean() {
			logger.Warn("store recovered at startup",
				"dropped_records", rec.DroppedRecords,
				"quarantined", len(rec.Quarantined),
				"truncated_bytes", rec.TruncatedBytes)
		}
		cfg.Store = st
	}
	resolver, err := buildResolver(fs.Args(), *useBugs)
	if err != nil {
		return usageError{err}
	}
	cfg.Resolver = resolver
	srv, err := service.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Info("vprof service listening", "addr", ln.Addr().String(), "backend", backendDesc)
	fmt.Printf("vprof service listening on http://%s (%s)\n", ln.Addr(), backendDesc)

	// Serve until the listener fails or a termination signal arrives. On
	// SIGTERM/SIGINT the service drains: new requests are refused with 503,
	// in-flight work gets -drain-timeout to finish, the store is flushed,
	// and only then do the connections close.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills hard
		logger.Info("shutting down", "drain_timeout", drainTimeout.String())
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(drainCtx); err != nil {
			logger.Error("drain incomplete", "err", err)
			hs.Close()
			return err
		}
		if err := hs.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		logger.Info("shutdown complete")
		return nil
	}
}

func cmdPush(args []string) error {
	file, args := splitFileArg(args)
	fs := flag.NewFlagSet("push", flag.ContinueOnError)
	server := fs.String("server", "http://127.0.0.1:7070", "service base URL")
	workload := fs.String("workload", "", "workload name (default: program base name)")
	label := fs.String("label", "", "normal (baseline) or candidate (suspected buggy)")
	dir := fs.String("dir", "", "push existing artifacts from this directory instead of profiling")
	run := fs.String("run", "", "run id (required with -dir; default 0..runs-1 when profiling)")
	runs := fs.Int("runs", 1, "profiling runs to push")
	inputs := fs.String("inputs", "", "comma-separated workload inputs")
	seed := fs.Uint64("seed", 1, "PRNG seed of the first run")
	maxTicks := fs.Int64("max-ticks", 0, "tick budget per run (0 = default)")
	interval := fs.Int64("interval", sampler.DefaultInterval, "sampling interval in ticks")
	funcs := fs.String("funcs", "", "comma-separated component functions to monitor")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	lb, err := store.ParseLabel(*label)
	if err != nil {
		return usageError{err}
	}
	client := service.NewClient(*server)

	// Mode 1: push artifacts previously written by `vprof profile -out`.
	if *dir != "" {
		if *workload == "" || *run == "" {
			return usageError{fmt.Errorf("push -dir needs -workload and -run")}
		}
		profiles, err := profilefmt.ReadDir(*dir)
		if err != nil {
			return err
		}
		if len(profiles) == 0 {
			return fmt.Errorf("no profiles in %s", *dir)
		}
		res, err := client.Push(*workload, lb, *run, sampler.MergeProfiles(profiles))
		if err != nil {
			return err
		}
		printPush(res)
		return nil
	}

	// Mode 2: profile the program locally and push each run.
	if file == "" && fs.NArg() == 1 {
		file = fs.Arg(0)
	}
	if file == "" {
		return usageError{fmt.Errorf("push: need a program file or -dir")}
	}
	wl := *workload
	if wl == "" {
		wl = strings.TrimSuffix(filepath.Base(file), filepath.Ext(file))
	}
	prog, err := compileFile(file)
	if err != nil {
		return err
	}
	in, err := parseInputs(*inputs)
	if err != nil {
		return err
	}
	sch := prog.GenerateSchema(schemaOpts(*funcs, false))
	for i := 0; i < *runs; i++ {
		// Per-run phase/seed variation, as the offline Diagnose does; every
		// run records values, since the server picks which run it reads.
		cfg := sampler.RunConfig(vm.Config{Seed: *seed}, i)
		spec := vprof.RunSpec{
			Inputs:     in,
			Seed:       cfg.Seed,
			MaxTicks:   *maxTicks,
			AlarmPhase: cfg.AlarmPhase,
			Interval:   *interval,
		}
		id := fmt.Sprint(i)
		if *run != "" {
			id = *run
			if *runs > 1 {
				id = fmt.Sprintf("%s-%d", *run, i)
			}
		}
		res, err := client.Push(wl, lb, id, prog.Profile(spec, sch))
		if err != nil {
			return err
		}
		printPush(res)
	}
	return nil
}

func printPush(res *service.PushResult) {
	state := "stored"
	if res.Dup {
		state = "deduplicated"
	}
	fmt.Printf("%s %s/%s run %s as %s\n", state, res.Workload, res.Label, res.Run, res.ID[:12])
}

func cmdQuery(args []string) error {
	if len(args) == 0 {
		return usageError{fmt.Errorf("query: need a subcommand (workloads, diagnose, report, stats)")}
	}
	sub, args := args[0], args[1:]
	// Each subcommand has its own flag set: -server, and diagnose's own.
	fs := flag.NewFlagSet("query "+sub, flag.ContinueOnError)
	server := fs.String("server", "http://127.0.0.1:7070", "service base URL")
	var workload, candidates *string
	var top *int
	var sketches *bool
	switch sub {
	case "workloads", "report", "stats":
	case "diagnose":
		workload = fs.String("workload", "", "workload to diagnose")
		candidates = fs.String("candidates", "", "comma-separated candidate run ids (default: all)")
		top = fs.Int("top", 10, "report rows")
		sketches = fs.Bool("sketches", false, "diagnose via the server's persisted sketches (incremental path)")
	default:
		return usageError{fmt.Errorf("query: unknown subcommand %q", sub)}
	}
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	client := service.NewClient(*server)
	switch sub {
	case "workloads":
		infos, err := client.Workloads()
		if err != nil {
			return err
		}
		fmt.Printf("%-20s %8s %11s %10s\n", "workload", "normals", "candidates", "baselines")
		for _, info := range infos {
			fmt.Printf("%-20s %8d %11d %10d\n", info.Workload, info.Normals, info.Candidates, info.Baselines)
		}
		return nil
	case "diagnose":
		if *workload == "" {
			return usageError{fmt.Errorf("query diagnose: -workload is required")}
		}
		req := service.DiagnoseRequest{Workload: *workload, Top: *top, Sketches: *sketches}
		if *candidates != "" {
			req.Candidates = strings.Split(*candidates, ",")
		}
		resp, err := client.Diagnose(req)
		if err != nil {
			return err
		}
		fmt.Println(resp.Summary())
		fmt.Print(resp.Render)
		return nil
	case "report":
		if fs.NArg() != 1 {
			return usageError{fmt.Errorf("query report: need exactly one report id")}
		}
		resp, err := client.Report(fs.Arg(0))
		if err != nil {
			return err
		}
		fmt.Println(resp.Summary())
		fmt.Print(resp.Render)
		return nil
	case "stats":
		st, err := client.Stats()
		if err != nil {
			return err
		}
		fmt.Printf("ingested %d (deduped %d, rejected %d) across %d workloads\n",
			st.Ingested, st.Deduped, st.Rejected, st.Workloads)
		fmt.Printf("diagnoses %d, memo cache hits %d\n", st.Diagnoses, st.DiagnoseCacheHits)
		fmt.Printf("decode cache: %d hits, %d misses, %d resident\n",
			st.DecodeCache.Hits, st.DecodeCache.Misses, st.DecodeCache.Entries)
		fmt.Printf("worker pool: %d slots\n", st.Workers)
	}
	return nil
}
