package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"vicinity/internal/baseline"
	"vicinity/internal/core"
	"vicinity/internal/qclient"
	"vicinity/internal/qserver"
	"vicinity/internal/store"
	"vicinity/internal/wire"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans of one sweep share its root as
// parent; spans stay in memory until the run ends.
type span struct {
	name       string
	parent     int
	start, end time.Time
}

// tracer records spans. A nil tracer records nothing, so the untraced
// workloads pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Now()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = now
	return now.Sub(t.spans[id].start)
}

// durations returns the durations of every span with the given name
// whose parent is parent.
func (t *tracer) durations(name string, parent int) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ds []time.Duration
	for _, s := range t.spans {
		if s.name == name && s.parent == parent {
			ds = append(ds, s.end.Sub(s.start))
		}
	}
	return ds
}

// Call counts of the traced sweep.
const (
	traceKPaths  = 32   // rank inputs timed at K=1 and K=4
	traceKAllocs = 8    // K=4 queries in the allocation count
	tracePings   = 2000 // mux pings
	traceCodec   = 8    // codec passes over the pairs
	traceBatches = 6    // update batches through writer and replica
)

// traceRun is the traced run: it sets the stack up, times calls into
// each layer on the workload inputs, runs the workload itself with a
// span around every client call (its end-to-end figures go to standard
// error, for the tracing overhead), and reports the per-layer metrics.
func traceRun(ctx context.Context, workload string, seed uint64, seconds float64, r *run) error {
	tr := &tracer{}
	r.tr = tr
	st, times, err := setupMany(ctx, workload == "churn")
	if err != nil {
		return err
	}
	defer st.close()
	r.set("gen.graph_s", "s", secs(quantile(times.gen, 0.5)))
	r.set("core.build_s", "s", secs(quantile(times.build, 0.5)))
	ref := newRefGraph(st.g.NumNodes(), edgeList(st.g))

	pairs := pointInputs(seed, ref.n())
	chk := newPointChecker(pairs, ref)
	root := tr.begin("sweep", -1)
	traceServing(ctx, st, ref, pairs, chk, tr, root, r)
	traceCore(ctx, st, ref, pairs, chk, tr, root, r)
	traceRank(ctx, st, ref, seed, tr, root, r)
	tr.end(root)

	e2e := newRun()
	e2e.tr = tr
	runWorkload(ctx, workload, st, ref, seed, seconds/3, e2e)
	for _, k := range sortedKeys(e2e.metrics) {
		fmt.Fprintf(os.Stderr, "traced end-to-end %-20s %14.4f %s\n", k, e2e.metrics[k].Value, e2e.metrics[k].Unit)
	}
	r.ops = append(r.ops, e2e.ops...)
	r.errs = append(r.errs, e2e.errs...)
	r.notes = append(r.notes, e2e.notes...)

	churnRoot := tr.begin("sweep.churn", -1)
	err = traceChurn(ctx, st, ref, seed, tr, churnRoot, r)
	tr.end(churnRoot)
	return err
}

// traceServing times the serving layers on point's pairs: the mux
// client and server, the serial client, and HTTP.
func traceServing(ctx context.Context, st *stack, ref *refGraph, pairs []pair, chk *pointChecker, tr *tracer, root int, r *run) {
	op := r.op("trace.serving")
	served := func(name string, c *qclient.Client) {
		for i, p := range pairs {
			op.attempted++
			sp := tr.begin(name, root)
			res, err := c.Query(ctx, pointSpec(p))
			tr.end(sp)
			if err == nil {
				err = res.Items[0].Err
			}
			if err != nil {
				op.failed++
				r.fail("%s: %v", name, err)
				continue
			}
			chk.check(r, i, res.Items[0], ref.has)
		}
	}
	served("qclient.Query.mux", st.cli)
	// Only setup's first query precedes this pass on the server.
	r.set("qserver.query_server_p50_us", "us", float64(st.writer.srv.Latency(qserver.EpQuery).Quantile(0.5))/1e3)

	for i := 0; i < tracePings; i++ {
		op.attempted++
		sp := tr.begin("qclient.Ping", root)
		_, err := st.cli.Ping()
		tr.end(sp)
		if err != nil {
			op.failed++
			r.fail("ping: %v", err)
		}
	}
	r.set("qclient.mux_ping_p50_us", "us", us(quantile(tr.durations("qclient.Ping", root), 0.5)))

	serial, err := qclient.Dial(st.writer.addr(), qclient.Options{})
	if err != nil {
		r.fail("serial dial: %v", err)
	} else {
		served("qclient.Query.serial", serial)
		serial.Close()
	}
	r.set("qclient.serial_query_p50_us", "us", us(quantile(tr.durations("qclient.Query.serial", root), 0.5)))

	for i, p := range pairs {
		op.attempted++
		body := fmt.Sprintf(`{"s":%d,"t":%d,"want_path":true}`, p.s, p.t)
		sp := tr.begin("http.v2.query", root)
		resp, err := st.web.Post(st.writer.base()+"/v2/query", "application/json", bytes.NewReader([]byte(body)))
		var out struct {
			Results []struct {
				Distance  uint32   `json:"distance"`
				Reachable bool     `json:"reachable"`
				Path      []uint32 `json:"path"`
				Error     string   `json:"error"`
			} `json:"results"`
		}
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&out)
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
			if err == nil && (len(out.Results) != 1 || out.Results[0].Error != "") {
				err = fmt.Errorf("bad response %+v", out)
			}
		}
		tr.end(sp)
		if err != nil {
			op.failed++
			r.fail("http query: %v", err)
			continue
		}
		it := out.Results[0]
		d := it.Distance
		if !it.Reachable {
			d = noDist
		}
		if err := checkPath(p.s, p.t, d, it.Path, ref.has, false); err != nil {
			r.fail("http query: %v", err)
		}
		if i < pointVerify && d != chk.want[i] {
			r.fail("http query %d→%d: distance %d, BFS says %d", p.s, p.t, d, chk.want[i])
		}
	}
	r.set("qserver.http_query_p50_us", "us", us(quantile(tr.durations("http.v2.query", root), 0.5)))
}

// traceCore times in-process Oracle.Query on point's pairs, splits it
// by answer method, and counts the work and allocations per query.
func traceCore(ctx context.Context, st *stack, ref *refGraph, pairs []pair, chk *pointChecker, tr *tracer, root int, r *run) {
	o := st.oracle()
	op := r.op("trace.core")
	results := make([]core.Result, len(pairs))
	pass := func(name string) []time.Duration {
		ds := make([]time.Duration, len(pairs))
		for i, p := range pairs {
			op.attempted++
			sp := tr.begin(name, root)
			res, err := o.Query(ctx, core.Request{S: p.s, T: p.t, WantPath: true})
			ds[i] = tr.end(sp)
			if err != nil {
				op.failed++
				r.fail("core query: %v", err)
				continue
			}
			chk.check(r, i, qclient.QueryItem{Dist: res.Dist, Method: uint8(res.Method), Path: res.Path}, ref.has)
			results[i] = res
		}
		return ds
	}
	pass("core.Query.warm")
	ds := pass("core.Query")
	r.set("core.query_p50_us", "us", us(quantile(ds, 0.5)))

	var table, inter, fall []time.Duration
	var lookups, scanned, expanded, fallbacks int
	for i, res := range results {
		switch {
		case res.Method == core.MethodIntersection:
			inter = append(inter, ds[i])
		case res.Method.Resolved():
			table = append(table, ds[i])
		case res.Method == core.MethodFallbackExact:
			fall = append(fall, ds[i])
		}
		lookups += res.Cost.Lookups
		scanned += res.Cost.Scanned
		expanded += res.Cost.Expanded
		fallbacks += res.Cost.Fallbacks
	}
	n := float64(len(pairs))
	r.set("core.table_us", "us", us(mean(table)))
	r.set("core.intersection_us", "us", us(mean(inter)))
	r.set("core.fallback_us", "us", us(mean(fall)))
	r.count("core.table_frac", "ratio", float64(len(table))/n)
	r.count("core.intersection_frac", "ratio", float64(len(inter))/n)
	r.count("core.fallback_frac", "ratio", float64(len(fall))/n)
	r.count("core.lookups_per_query", "count", float64(lookups)/n)
	r.count("core.scanned_per_query", "count", float64(scanned)/n)
	r.count("traverse.expanded_per_fallback", "count", float64(expanded)/float64(max(fallbacks, 1)))

	// The paper's ratios at this scale: per-query time against
	// bidirectional BFS on the same pairs, and memory against all-pairs
	// storage.
	bfs := baseline.NewBiBFS(st.g)
	sp := tr.begin("baseline.BiBFS.Path", root)
	for _, p := range pairs[:pointVerify] {
		bfs.Path(p.s, p.t)
	}
	bidir := tr.end(sp) / pointVerify
	mem := o.Memory()
	r.note("paper ratios: bidirectional BFS takes %v per path query, %.2fx the oracle's mean of %v; all-pairs storage needs %.1fx the oracle's entries",
		bidir, float64(bidir)/float64(mean(ds[:pointVerify])), mean(ds[:pointVerify]), mem.SavingsFactor)

	allocs := func() float64 {
		return allocsPer(len(pairs), func() {
			for _, p := range pairs {
				_, _ = o.Query(ctx, core.Request{S: p.s, T: p.t, WantPath: true})
			}
		})
	}
	r.count("core.allocs_per_query", "allocs", allocs())
	r.recount(map[string]float64{"core.allocs_per_query": allocs()})

	// The wire codec on the frames these answers make: encode and
	// decode of one mux request frame and its response frame.
	reqs := make([]wire.QueryRequest, len(pairs))
	resps := make([]wire.QueryResponse, len(pairs))
	for i, p := range pairs {
		reqs[i] = wire.QueryRequest{S: p.s, T: p.t, Flags: wire.QueryWantPath}
		res := results[i]
		resps[i] = wire.QueryResponse{Epoch: res.Epoch, Items: []wire.QueryItem{{Dist: res.Dist, Method: uint8(res.Method), Path: res.Path}}}
	}
	bytesPer, perCycle := codec(tr, root, "wire.codec.query", len(pairs), func(i int) (wire.Message, wire.Message) {
		return &reqs[i], &resps[i]
	}, &wire.QueryRequest{}, &wire.QueryResponse{})
	r.set("wire.query_codec_ns", "ns", float64(perCycle))
	r.count("wire.query_frame_bytes", "B", bytesPer)
}

// codec times encode+decode cycles of request/response frame pairs and
// returns the mean frame bytes per pair and the time per cycle.
func codec(tr *tracer, root int, name string, n int, msgs func(i int) (wire.Message, wire.Message), req, resp wire.Message) (float64, time.Duration) {
	var buf []byte
	var total int
	for i := 0; i < n; i++ {
		a, b := msgs(i)
		buf = wire.AppendMuxFrame(buf[:0], uint64(i), a)
		total += len(buf)
		buf = wire.AppendMuxFrame(buf[:0], uint64(i), b)
		total += len(buf)
	}
	sp := tr.begin(name, root)
	for pass := 0; pass < traceCodec; pass++ {
		for i := 0; i < n; i++ {
			a, b := msgs(i)
			buf = wire.AppendMuxFrame(buf[:0], uint64(i), a)
			_ = wire.UnmarshalInto(buf[12:], req)
			buf = wire.AppendMuxFrame(buf[:0], uint64(i), b)
			_ = wire.UnmarshalInto(buf[12:], resp)
		}
	}
	d := tr.end(sp)
	return float64(total) / float64(n), d / time.Duration(traceCodec*n)
}

// allocsPer counts heap allocations per operation over f, which runs n
// operations, with the collector paused so pooled scratch stays put.
func allocsPer(n int, f func()) float64 {
	f() // warm pools
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// traceRank times in-process one-to-many and K-paths queries on rank's
// inputs, and their frames.
func traceRank(ctx context.Context, st *stack, ref *refGraph, seed uint64, tr *tracer, root int, r *run) {
	o := st.oracle()
	ins := rankInputs(seed, ref, rankTrace)
	op := r.op("trace.rank")
	batches := make([]core.Result, len(ins))
	var scanned int
	for pass := 0; pass < 2; pass++ {
		name := []string{"core.Query.batch.warm", "core.Query.batch"}[pass]
		for i, in := range ins {
			op.attempted++
			sp := tr.begin(name, root)
			res, err := o.Query(ctx, core.Request{S: in.s, Ts: in.ts})
			tr.end(sp)
			if err != nil {
				op.failed++
				r.fail("core batch: %v", err)
				continue
			}
			for x, it := range res.Items {
				if it.Err != nil || it.Dist != in.dists[x] {
					r.fail("core batch %d→%d: distance %d, BFS says %d", in.s, in.ts[x], it.Dist, in.dists[x])
				}
			}
			if pass == 1 {
				scanned += res.Cost.Scanned
				batches[i] = res
			}
		}
	}
	r.set("core.batch_p50_us", "us", us(quantile(tr.durations("core.Query.batch", root), 0.5)))
	r.count("core.batch_scanned_per_target", "count", float64(scanned)/float64(len(ins)*rankTargets))

	kq := ins[:min(traceKPaths, len(ins))]
	var kresps []wire.KPathsResponse
	for _, k := range []int{1, rankK} {
		name := fmt.Sprintf("core.Query.k%d", k)
		for _, in := range kq {
			op.attempted++
			sp := tr.begin(name, root)
			res, err := o.Query(ctx, core.Request{S: in.s, T: in.kt, K: k})
			tr.end(sp)
			if err != nil {
				op.failed++
				r.fail("core kpaths: %v", err)
				continue
			}
			ps := make([]rankedPath, len(res.Paths))
			items := make([]wire.KPathsItem, len(res.Paths))
			for x, p := range res.Paths {
				ps[x] = rankedPath{p.Dist, p.Path}
				items[x] = wire.KPathsItem{Dist: p.Dist, Path: p.Path}
			}
			if err := checkKPaths(in.s, in.kt, k, in.kdist, ps, ref.has); err != nil {
				r.fail("core kpaths: %v", err)
			}
			if k == rankK {
				kresps = append(kresps, wire.KPathsResponse{Epoch: res.Epoch, Method: uint8(res.Method), Items: items})
			}
		}
	}
	r.set("kpaths.root_p50_ms", "ms", ms(quantile(tr.durations("core.Query.k1", root), 0.5)))
	r.set("kpaths.k4_p50_ms", "ms", ms(quantile(tr.durations(fmt.Sprintf("core.Query.k%d", rankK), root), 0.5)))
	ka := kq[:min(traceKAllocs, len(kq))]
	kallocs := func() float64 {
		return allocsPer(len(ka), func() {
			for _, in := range ka {
				_, _ = o.Query(ctx, core.Request{S: in.s, T: in.kt, K: rankK})
			}
		})
	}
	r.count("kpaths.allocs_per_query", "allocs", kallocs())
	r.recount(map[string]float64{"kpaths.allocs_per_query": kallocs()})

	var kbytes int
	for i := range kresps {
		kbytes += len(wire.AppendMuxFrame(nil, 1, &wire.KPathsRequest{S: kq[i].s, T: kq[i].kt, K: rankK}))
		kbytes += len(wire.AppendMuxFrame(nil, 1, &kresps[i]))
	}
	r.count("wire.kpaths_frame_bytes", "B", float64(kbytes)/float64(max(len(kresps), 1)))

	reqs := make([]wire.QueryRequest, len(ins))
	resps := make([]wire.QueryResponse, len(ins))
	for i, in := range ins {
		reqs[i] = wire.QueryRequest{S: in.s, Ts: in.ts, Flags: wire.QueryMany}
		items := make([]wire.QueryItem, len(batches[i].Items))
		for x, it := range batches[i].Items {
			items[x] = wire.QueryItem{Dist: it.Dist, Method: uint8(it.Method)}
		}
		resps[i] = wire.QueryResponse{Epoch: batches[i].Epoch, Items: items}
	}
	bytesPer, perCycle := codec(tr, root, "wire.codec.batch", len(ins), func(i int) (wire.Message, wire.Message) {
		return &reqs[i], &resps[i]
	}, &wire.QueryRequest{}, &wire.QueryResponse{})
	r.set("wire.batch_codec_us", "us", us(perCycle))
	r.count("wire.batch_frame_bytes", "B", bytesPer)
}

// traceChurn measures the snapshot a replica installs, then pushes
// traceBatches update batches through the writer's catalog and a
// replica catalog: core repair (Catalog.Apply), the delta artifact,
// its fetch, and the replica's SyncOnce.
func traceChurn(ctx context.Context, st *stack, ref *refGraph, seed uint64, tr *tracer, root int, r *run) error {
	w := st.writer.srv.Catalog()
	var snap bytes.Buffer
	if _, err := w.WriteSnapshot(&snap); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	r.set("store.snapshot_mb", "MB", float64(snap.Len())/(1<<20))
	sp := tr.begin("core.ReadOracle", root)
	loaded, err := core.ReadOracle(bytes.NewReader(snap.Bytes()))
	r.set("store.snapshot_load_s", "s", secs(tr.end(sp)))
	if err != nil {
		return fmt.Errorf("snapshot load: %w", err)
	}
	snap = bytes.Buffer{}
	repl := st.repl
	if repl == nil {
		cat, err := store.Bootstrap(store.RoleReplica)
		if err != nil {
			return err
		}
		if _, err := cat.InstallSnapshot(loaded, w.Epoch()); err != nil {
			return err
		}
		repl = &store.Replicator{Catalog: cat, Base: st.writer.base(), Client: st.web}
	} else if err := repl.SyncOnce(ctx); err != nil {
		return fmt.Errorf("replica catch-up: %w", err)
	}
	loaded = nil
	runtime.GC()

	rng := newRand(seed, streamChurn)
	probes := probeInputs(seed, ref.n())
	op := r.op("trace.churn")
	var allocMB []float64
	var deltaBytes int
	for b := 0; b < traceBatches; b++ {
		ins, del := churnBatch(rng, ref)
		epoch := w.Epoch() + 1
		ref.apply(epoch, ins, del)
		op.attempted++
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sp := tr.begin("store.Catalog.Apply", root)
		_, err := w.Apply(core.Update{Edges: ins, DelEdges: del})
		tr.end(sp)
		runtime.ReadMemStats(&m1)
		if err != nil {
			op.failed++
			return fmt.Errorf("apply: %w", err)
		}
		allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		raw, ok := w.DeltaArtifact(epoch)
		if !ok {
			return fmt.Errorf("no delta artifact for epoch %d", epoch)
		}
		deltaBytes += len(raw)

		sp = tr.begin("store.fetch.delta", root)
		resp, err := st.web.Get(fmt.Sprintf("%s/v1/repl/fetch?kind=delta&to=%d", st.writer.base(), epoch))
		if err == nil {
			var got []byte
			got, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil && !bytes.Equal(got, raw) {
				err = fmt.Errorf("fetched delta differs from the artifact")
			}
		}
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("delta fetch: %w", err)
		}

		sp = tr.begin("store.Replicator.SyncOnce", root)
		err = repl.SyncOnce(ctx)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("sync: %w", err)
		}
		if got := repl.Catalog.Epoch(); got != epoch {
			r.fail("replica at epoch %d after sync, want %d", got, epoch)
		}
		compareInProcess(ctx, ref, probes, epoch, w.State().Oracle, repl.Catalog.State().Oracle, r)
	}
	r.set("core.apply_p50_ms", "ms", ms(quantile(tr.durations("store.Catalog.Apply", root), 0.5)))
	r.set("core.apply_alloc_mb", "MB", medianF(allocMB))
	r.count("store.delta_bytes", "B", float64(deltaBytes)/traceBatches)
	r.set("store.delta_fetch_ms", "ms", ms(quantile(tr.durations("store.fetch.delta", root), 0.5)))
	r.set("store.sync_p50_ms", "ms", ms(quantile(tr.durations("store.Replicator.SyncOnce", root), 0.5)))
	return nil
}

// compareInProcess asks both oracles the probe set: answers must be
// identical and match BFS on the reference graph.
func compareInProcess(ctx context.Context, ref *refGraph, probes []pair, epoch uint64, a, b *core.Oracle, r *run) {
	ref.mu.RLock()
	defer ref.mu.RUnlock()
	dist := make([]uint32, ref.n())
	queue := make([]uint32, 0, ref.n())
	src := noDist
	for _, p := range probes {
		if p.s != src {
			ref.bfs(p.s, dist, queue)
			src = p.s
		}
		req := core.Request{S: p.s, T: p.t, WantPath: true}
		x, errA := a.Query(ctx, req)
		y, errB := b.Query(ctx, req)
		if errA != nil || errB != nil {
			r.fail("probe %d→%d: %v / %v", p.s, p.t, errA, errB)
			continue
		}
		if x.Dist != y.Dist || x.Method != y.Method || fmt.Sprint(x.Path) != fmt.Sprint(y.Path) || x.Cost != y.Cost {
			r.fail("probe %d→%d at epoch %d: writer and replica answers differ", p.s, p.t, epoch)
		}
		if x.Dist != dist[p.t] {
			r.fail("probe %d→%d at epoch %d: distance %d, BFS says %d", p.s, p.t, epoch, x.Dist, dist[p.t])
		}
		if err := checkPath(p.s, p.t, x.Dist, x.Path, ref.has, false); err != nil {
			r.fail("probe at epoch %d: %v", epoch, err)
		}
	}
}
