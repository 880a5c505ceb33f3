package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"

	"vprof/internal/cluster"
	"vprof/internal/obs"
	"vprof/internal/parallel"
	"vprof/internal/sampler"
	"vprof/internal/service"
	"vprof/internal/store"
)

// deployment is the service under test, in-process on loopback and wired
// the way `vprof serve` wires it: one shared registry instrumenting the
// analysis pool and the sampler, default store options (fsync on), default
// service and router settings, logs discarded. A clustered deployment is
// three `vprof node` members behind a `vprof serve -cluster` front end.
type deployment struct {
	reg     *obs.Registry
	backend service.Backend
	st      *store.Store    // single-node backend
	router  *cluster.Router // clustered backend
	stores  []*store.Store  // every store, node stores included
	dirs    []string        // their directories, for fsck after close
	servers []*loopback
	base    string
	client  *service.Client
}

// loopback is one HTTP server on an ephemeral loopback port.
type loopback struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

func serve(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(ln) // returns ErrServerClosed once stop closes it
	}()
	return l, nil
}

func (l *loopback) stop() {
	l.hs.Close()
	<-l.done
}

func resolver() service.Resolver {
	return service.NewMultiResolver(service.NewBugsResolver())
}

// deploy opens fresh stores under dir and starts the service.
func deploy(dir string, clustered bool) (d *deployment, err error) {
	d = &deployment{reg: obs.NewRegistry()}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	parallel.Instrument(d.reg)
	sampler.Instrument(d.reg)
	cfg := service.Config{Resolver: resolver(), Metrics: d.reg}
	if clustered {
		var refs []cluster.NodeRef
		for i := 0; i < 3; i++ {
			id := fmt.Sprintf("node-%d", i)
			reg := obs.NewRegistry()
			st, err := d.open(filepath.Join(dir, id), reg)
			if err != nil {
				return d, err
			}
			node, err := cluster.NewNode(cluster.NodeConfig{ID: id, Store: st, Resolver: resolver(), Metrics: reg})
			if err != nil {
				return d, err
			}
			l, err := serve(node.Handler())
			if err != nil {
				return d, err
			}
			d.servers = append(d.servers, l)
			refs = append(refs, cluster.NodeRef{ID: id, Base: l.url})
		}
		d.router, err = cluster.NewRouter(cluster.RouterConfig{Nodes: refs, Metrics: d.reg})
		if err != nil {
			return d, err
		}
		d.backend, cfg.Backend = d.router, d.router
	} else {
		d.st, err = d.open(filepath.Join(dir, "store"), d.reg)
		if err != nil {
			return d, err
		}
		d.backend, cfg.Store = d.st, d.st
	}
	srv, err := service.New(cfg)
	if err != nil {
		return d, err
	}
	front, err := serve(srv.Handler())
	if err != nil {
		return d, err
	}
	d.servers = append(d.servers, front)
	d.base = front.url
	// The load generator holds at most two connections, one per client.
	d.client = service.NewClient(d.base).Instrument(d.reg)
	d.client.HTTP = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	return d, nil
}

func (d *deployment) open(dir string, reg *obs.Registry) (*store.Store, error) {
	st, err := store.Open(dir, store.Options{BaselineCap: 16, Metrics: reg})
	if err != nil {
		return nil, err
	}
	d.stores = append(d.stores, st)
	d.dirs = append(d.dirs, dir)
	return st, nil
}

// close stops every server, front end first, and closes every store.
func (d *deployment) close() error {
	for i := len(d.servers) - 1; i >= 0; i-- {
		d.servers[i].stop()
	}
	d.servers = nil
	if d.client != nil {
		d.client.HTTP.CloseIdleConnections()
	}
	var errs []error
	for _, st := range d.stores {
		errs = append(errs, st.Close())
	}
	d.stores = nil
	return errors.Join(errs...)
}
