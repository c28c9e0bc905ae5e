package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"vicinity/internal/core"
	"vicinity/internal/gen"
	"vicinity/internal/graph"
	"vicinity/internal/qclient"
	"vicinity/internal/qserver"
	"vicinity/internal/store"
)

// setupReps is how many times a run sets the stack up; setup_s is the
// median, and the last stack serves the workload.
const setupReps = 3

// node is one serving process in miniature: a qserver on a loopback
// TCP listener plus its HTTP surface (v2 queries, admin updates and
// the replication endpoints) on a second listener.
type node struct {
	srv  *qserver.Server
	tcp  net.Listener
	web  *http.Server
	webL net.Listener
	wg   sync.WaitGroup
}

func startNode(cat *store.Catalog) (*node, error) {
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	webL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tcp.Close()
		return nil, err
	}
	srv := qserver.NewWithCatalog(cat, qserver.Config{AllowUpdates: true})
	n := &node{srv: srv, tcp: tcp, web: &http.Server{Handler: srv.Handler()}, webL: webL}
	n.wg.Add(2)
	go func() { defer n.wg.Done(); _ = srv.Serve(tcp) }()
	go func() { defer n.wg.Done(); _ = n.web.Serve(webL) }()
	return n, nil
}

func (n *node) addr() string { return n.tcp.Addr().String() }
func (n *node) base() string { return "http://" + n.webL.Addr().String() }

// stop shuts both surfaces down and waits for their goroutines.
func (n *node) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = n.web.Shutdown(ctx)
	_ = n.srv.Shutdown(ctx)
	n.wg.Wait()
}

// stack is the served system under test: a writer node answering
// queries over a multiplexed client connection and, for churn, a
// replica that follows it through explicit SyncOnce calls.
type stack struct {
	g       *graph.Graph
	writer  *node
	replica *node
	repl    *store.Replicator
	web     *http.Client
	cli     *qclient.Client // multiplexed, to the writer
	repCli  *qclient.Client // multiplexed, to the replica

	genTime, buildTime, total time.Duration
}

// setup generates the fixed graph, builds the oracle, starts the
// serving stack and returns once a query is answered on every node:
// the span setup_s measures.
func setup(ctx context.Context, withReplica bool) (*stack, error) {
	t0 := time.Now()
	g := gen.ProfileLiveJournal.Generate(graphNodes, graphSeed)
	t1 := time.Now()
	o, err := core.Build(g, core.Options{Seed: oracleSeed})
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	t2 := time.Now()
	st := &stack{g: g, genTime: t1.Sub(t0), buildTime: t2.Sub(t1),
		web: &http.Client{Transport: &http.Transport{}}}
	if st.writer, err = startNode(store.NewCatalog(o, store.RoleWriter)); err != nil {
		return nil, err
	}
	if st.cli, err = dialMux(st.writer.addr()); err != nil {
		st.close()
		return nil, err
	}
	clients := []*qclient.Client{st.cli}
	if withReplica {
		cat, err := store.Bootstrap(store.RoleReplica)
		if err != nil {
			st.close()
			return nil, err
		}
		if st.replica, err = startNode(cat); err != nil {
			st.close()
			return nil, err
		}
		st.repl = &store.Replicator{Catalog: cat, Base: st.writer.base(), Client: st.web}
		if err := st.repl.SyncOnce(ctx); err != nil {
			st.close()
			return nil, fmt.Errorf("replica bootstrap: %w", err)
		}
		if st.repCli, err = dialMux(st.replica.addr()); err != nil {
			st.close()
			return nil, err
		}
		clients = append(clients, st.repCli)
	}
	for _, c := range clients {
		res, err := c.Query(ctx, qclient.QuerySpec{S: 0, T: 1, WantPath: true})
		if err == nil {
			err = res.Items[0].Err
		}
		if err != nil {
			st.close()
			return nil, fmt.Errorf("first query: %w", err)
		}
	}
	st.total = time.Since(t0)
	return st, nil
}

func dialMux(addr string) (*qclient.Client, error) {
	c, err := qclient.Dial(addr, qclient.Options{Mux: true})
	if err != nil {
		return nil, err
	}
	if !c.Muxed() {
		c.Close()
		return nil, errors.New("server refused the multiplexed session")
	}
	return c, nil
}

// oracle returns the writer's current snapshot.
func (st *stack) oracle() *core.Oracle { return st.writer.srv.Catalog().State().Oracle }

// close stops everything setup started and waits for it.
func (st *stack) close() {
	for _, c := range []*qclient.Client{st.cli, st.repCli} {
		if c != nil {
			c.Close()
		}
	}
	for _, n := range []*node{st.replica, st.writer} {
		if n != nil {
			n.stop()
		}
	}
	st.web.CloseIdleConnections()
}

// setupTimes are one set-up's phases.
type setupTimes struct{ gen, build, total []time.Duration }

// setupMany sets the stack up setupReps times, tearing down all but
// the last, and returns the last with every set-up's phase times.
func setupMany(ctx context.Context, withReplica bool) (*stack, setupTimes, error) {
	var times setupTimes
	var st *stack
	for i := 0; i < setupReps; i++ {
		if st != nil {
			st.close()
			st = nil
			runtime.GC()
		}
		var err error
		if st, err = setup(ctx, withReplica); err != nil {
			return nil, times, err
		}
		times.gen = append(times.gen, st.genTime)
		times.build = append(times.build, st.buildTime)
		times.total = append(times.total, st.total)
	}
	return st, times, nil
}

// edgeList copies the program's graph into a plain edge list: the only
// thing the reference takes from it.
func edgeList(g *graph.Graph) [][2]uint32 {
	edges := make([][2]uint32, 0, g.NumEdges())
	g.ForEachEdge(func(u, v, _ uint32) { edges = append(edges, [2]uint32{u, v}) })
	return edges
}
