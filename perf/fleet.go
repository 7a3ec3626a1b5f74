package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"graphpulse/internal/dserve"
	"graphpulse/internal/graph"
	"graphpulse/internal/serve"
)

const graphName = "g"

// node is one serve.Server on a loopback listener, optionally wrapped as a
// dserve.Worker (peer endpoints, and a WAL when walDir is set).
type node struct {
	srv *serve.Server
	url string
}

// bootNode starts a server holding g with the shipped serve defaults.
// worker wraps it as a distributed-tier worker; walDir turns on the
// fsync-before-ack mutation log.
func bootNode(g *graph.CSR, worker bool, walDir string) (*node, error) {
	srv, err := serve.New(serve.Config{Graphs: []serve.GraphSpec{{Name: graphName, Graph: g}}})
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if worker {
		wk, err := dserve.NewWorker(dserve.WorkerConfig{Server: srv, WALDir: walDir})
		if err != nil {
			return nil, errors.Join(err, srv.Shutdown(context.Background()))
		}
		h = wk.Handler()
	}
	addr, err := srv.StartWith("127.0.0.1:0", h)
	if err != nil {
		return nil, errors.Join(err, srv.Shutdown(context.Background()))
	}
	return &node{srv: srv, url: "http://" + addr.String()}, nil
}

func (n *node) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return n.srv.Shutdown(ctx)
}

// fleet is a dserve.Router with shipped defaults (health probes and
// anti-entropy on) in front of three replicas of one graph.
type fleet struct {
	nodes  []*node
	router *dserve.Router
	proxy  *http.Transport
	url    string
}

const replicas = 3

// bootFleet starts the replicas, then the router seeded with their
// addresses. walRoot, when set, gives every worker its own WAL directory
// under it.
func bootFleet(g *graph.CSR, walRoot string) (*fleet, error) {
	f := &fleet{}
	var urls []string
	for i := 0; i < replicas; i++ {
		walDir := ""
		if walRoot != "" {
			walDir = filepath.Join(walRoot, fmt.Sprintf("wal%d", i))
		}
		n, err := bootNode(g, true, walDir)
		if err != nil {
			return nil, errors.Join(err, f.shutdown())
		}
		f.nodes = append(f.nodes, n)
		urls = append(urls, n.url)
	}
	// The router's default client rides http.DefaultTransport; a clone keeps
	// its settings and lets shutdown close the proxy connections.
	f.proxy = http.DefaultTransport.(*http.Transport).Clone()
	rt, err := dserve.NewRouter(dserve.RouterConfig{
		Workers:     urls,
		Replication: replicas,
		Client:      &http.Client{Transport: f.proxy, Timeout: 30 * time.Second},
	})
	if err != nil {
		return nil, errors.Join(err, f.shutdown())
	}
	f.router = rt
	addr, err := rt.Start("127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, f.shutdown())
	}
	f.url = "http://" + addr.String()
	return f, nil
}

func (f *fleet) shutdown() error {
	var errs []error
	if f.router != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, f.router.Shutdown(ctx))
		cancel()
		f.proxy.CloseIdleConnections()
	}
	for _, n := range f.nodes {
		errs = append(errs, n.shutdown())
	}
	return errors.Join(errs...)
}

// divergence fetches every replica's (epoch, digest) pair and reports how
// many differ from the first.
func (f *fleet) divergence(c *client) (int, error) {
	var first serve.DigestInfo
	diverged := 0
	for i, n := range f.nodes {
		var d serve.DigestInfo
		if err := c.get(n.url+"/internal/digest?graph="+graphName, &d); err != nil {
			return 0, err
		}
		if i == 0 {
			first = d
		} else if d.Epoch != first.Epoch || d.Digest != first.Digest {
			diverged++
		}
	}
	return diverged, nil
}
