package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"vicinity/internal/baseline"
	"vicinity/internal/core"
	"vicinity/internal/qclient"
	"vicinity/internal/wire"
)

// pointChecker checks point answers: every path is a real walk of the
// stated length, every pair keeps the answer it got first, and the
// first pointVerify pairs match BFS.
type pointChecker struct {
	pairs  []pair
	want   []uint32 // BFS distance for pairs[:pointVerify]
	mu     sync.Mutex
	first  []uint32
	method []uint8
	seen   []bool
}

func newPointChecker(pairs []pair, ref *refGraph) *pointChecker {
	c := &pointChecker{pairs: pairs, want: make([]uint32, pointVerify),
		first: make([]uint32, len(pairs)), method: make([]uint8, len(pairs)), seen: make([]bool, len(pairs))}
	dist := make([]uint32, ref.n())
	queue := make([]uint32, 0, ref.n())
	for i, p := range pairs[:pointVerify] {
		ref.bfs(p.s, dist, queue)
		c.want[i] = dist[p.t]
	}
	return c
}

func (c *pointChecker) check(r *run, i int, it qclient.QueryItem, edge func(u, v uint32) bool) {
	p := c.pairs[i]
	if err := checkPath(p.s, p.t, it.Dist, it.Path, edge, false); err != nil {
		r.fail("point: %v", err)
	}
	if i < pointVerify && it.Dist != c.want[i] {
		r.fail("point: %d→%d distance %d, BFS says %d", p.s, p.t, it.Dist, c.want[i])
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.seen[i] {
		c.seen[i], c.first[i], c.method[i] = true, it.Dist, it.Method
	} else if c.first[i] != it.Dist || c.method[i] != it.Method {
		r.fail("point: %d→%d answered %d/%d, earlier %d/%d", p.s, p.t, it.Dist, it.Method, c.first[i], c.method[i])
	}
}

// pointSpec is the point request: distance and path, default policy.
func pointSpec(p pair) qclient.QuerySpec {
	return qclient.QuerySpec{S: p.s, T: p.t, WantPath: true}
}

// runPoint: uniform pairs from one closed-loop caller on one muxed
// connection, then from nproc callers sharing it.
func runPoint(ctx context.Context, st *stack, ref *refGraph, seed uint64, seconds float64, r *run) {
	pairs := pointInputs(seed, ref.n())
	chk := newPointChecker(pairs, ref)
	single := r.op("point.query")
	heavy := &opStat{} // the fallback-resolved queries
	var clk clock

	// Phase 1: one caller. The first two rounds warm up untimed.
	i := 0
	query := func(record bool) {
		for j := 0; j < pointRound; j++ {
			k := i % len(pairs)
			i++
			t := time.Now()
			sp := r.tr.begin("qclient.Query.point", -1)
			res, err := st.cli.Query(ctx, pointSpec(pairs[k]))
			r.tr.end(sp)
			d := time.Since(t)
			single.attempted++
			if err == nil {
				err = res.Items[0].Err
			}
			if err != nil {
				single.failed++
				r.fail("point: %v", err)
				continue
			}
			if record {
				w := clk.window()
				single.record(w, d)
				if res.Items[0].Method == uint8(core.MethodFallbackExact) {
					heavy.record(w, d)
				}
			}
			chk.check(r, k, res.Items[0], ref.has)
		}
	}
	query(false)
	query(false)
	runtime.GC()
	gc0 := numGC()
	clk = newClock(time.Duration(0.6 * seconds * float64(time.Second)))
	for time.Since(clk.t0) < clk.len {
		query(true)
	}
	r.note("point single-caller phase: %d GC cycles", numGC()-gc0)

	// Phase 2: nproc closed-loop callers on the same connection.
	callers := runtime.NumCPU()
	sat := r.op("point.saturation")
	var (
		wg, ready sync.WaitGroup
		start     = make(chan struct{})
		mu        sync.Mutex
		satClk    clock
		done      = &opStat{}
	)
	runtime.GC()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		ready.Add(1)
		go func(c int) {
			defer wg.Done()
			k := c * len(pairs) / callers
			mine := &opStat{}
			round := func(record bool) {
				for j := 0; j < pointRound; j++ {
					p := k % len(pairs)
					k++
					mine.attempted++
					t := time.Now()
					sp := r.tr.begin("qclient.Query.point", -1)
					res, err := st.cli.Query(ctx, pointSpec(pairs[p]))
					r.tr.end(sp)
					d := time.Since(t)
					if err == nil {
						err = res.Items[0].Err
					}
					if err != nil {
						mine.failed++
						r.fail("point: %v", err)
						continue
					}
					if record {
						mine.record(satClk.window(), d)
					}
					chk.check(r, p, res.Items[0], ref.has)
				}
			}
			round(false) // warm-up, not counted
			mine.attempted, mine.failed = 0, 0
			ready.Done()
			<-start
			for time.Since(satClk.t0) < satClk.len {
				round(true)
			}
			mu.Lock()
			sat.attempted += mine.attempted
			sat.failed += mine.failed
			done = merged(done, mine)
			mu.Unlock()
		}(c)
	}
	ready.Wait()
	cpu0 := cpuTime()
	satClk = newClock(time.Duration(0.4 * seconds * float64(time.Second)))
	close(start)
	wg.Wait()
	end := time.Now()
	cpu := cpuTime() - cpu0

	r.set("p50_us", "us", us(single.windowed(0.5)))
	r.set("p90_us", "us", us(single.windowed(0.9)))
	r.set("heavy_ms", "ms", ms(heavy.windowed(0.5)))
	r.set("cpu_us_per_op", "us", us(cpu/time.Duration(max(len(done.samples), 1))))
	under := 0
	for _, d := range single.samples {
		if d < time.Millisecond {
			under++
		}
	}
	r.note("point single caller: p99 %v; %.2f%% of round trips under 1 ms",
		single.windowed(0.99), 100*float64(under)/float64(len(single.samples)))
	r.note("point saturation: %.0f queries/s with %d callers (%d queries)", done.rate(satClk.bounds(end)), callers, len(done.samples))
	countMethods(r, "point", chk.method)
}

// cpuTime is the CPU time all of the process's threads have used so
// far, read from CLOCK_PROCESS_CPUTIME_ID: exact to the nanosecond,
// where getrusage's user/system split is rounded to scheduler ticks and
// smears the microseconds one request costs.
func cpuTime() time.Duration {
	const clockProcessCPUTime = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

func numGC() uint32 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC
}

// countMethods records the method mix over the pairs' first answers.
func countMethods(r *run, prefix string, methods []uint8) {
	var n [16]int
	for _, m := range methods {
		n[m&15]++
	}
	for m, c := range n {
		if c > 0 {
			r.count(fmt.Sprintf("%s.method.%s", prefix, core.Method(m)), "", float64(c))
		}
	}
}

// runRank: one closed-loop caller; each round sends rankBatchesPK
// one-to-many requests, each from a fresh source, then one K-paths
// request from the round's first source.
func runRank(ctx context.Context, st *stack, ref *refGraph, seed uint64, seconds float64, r *run) {
	gen := newRankGen(seed, ref)
	batch, kp := r.op("rank.batch"), r.op("rank.kpaths")
	batchCPU := &opStat{}      // process CPU time of the one-to-many requests
	kpCPU := &opStat{}         // process CPU time of the K-paths requests
	var inFlight time.Duration // process CPU time while timed requests were in flight
	var first []rankedPath     // the first K-paths answer, for the brute-force check
	var firstIn rankInput
	var clk clock
	ins := make([]rankInput, rankBatchesPK)
	round := func(record bool) {
		for j := range ins {
			ins[j] = gen.next()
			in := &ins[j]
			c := cpuTime()
			t := time.Now()
			sp := r.tr.begin("qclient.Query.batch", -1)
			res, err := st.cli.Query(ctx, qclient.QuerySpec{S: in.s, Ts: in.ts})
			r.tr.end(sp)
			d := time.Since(t)
			c = cpuTime() - c
			batch.attempted++
			if err != nil {
				batch.failed++
				r.fail("rank batch: %v", err)
				continue
			}
			if record {
				batch.record(clk.window(), d)
				batchCPU.record(clk.window(), c)
				inFlight += c
			}
			for x, it := range res.Items {
				if it.Err != nil || it.Dist != in.dists[x] {
					r.fail("rank batch %d→%d: distance %d (err %v), BFS says %d", in.s, in.ts[x], it.Dist, it.Err, in.dists[x])
				}
			}
		}
		in := &ins[0]
		c := cpuTime()
		t := time.Now()
		sp := r.tr.begin("qclient.Query.kpaths", -1)
		res, err := st.cli.Query(ctx, qclient.QuerySpec{S: in.s, T: in.kt, K: rankK})
		r.tr.end(sp)
		d := time.Since(t)
		c = cpuTime() - c
		kp.attempted++
		if err == nil {
			err = res.Items[0].Err
		}
		if err != nil {
			kp.failed++
			r.fail("rank kpaths: %v", err)
			return
		}
		if record {
			kp.record(clk.window(), d)
			kpCPU.record(clk.window(), c)
			inFlight += c
		}
		ps := make([]rankedPath, len(res.Paths))
		for x, p := range res.Paths {
			ps[x] = rankedPath{p.Dist, p.Path}
		}
		if err := checkKPaths(in.s, in.kt, rankK, in.kdist, ps, ref.has); err != nil {
			r.fail("rank kpaths: %v", err)
		}
		if first == nil {
			first, firstIn = ps, *in
		}
	}
	for u := 0; u < 4; u++ {
		round(false)
	}
	runtime.GC()
	gc0 := numGC()
	clk = newClock(time.Duration(seconds * float64(time.Second)))
	for time.Since(clk.t0) < clk.len {
		round(true)
	}
	end := time.Now()
	r.note("rank timed phase: %d GC cycles", numGC()-gc0)
	compareYen(st, firstIn, first, r)

	all := merged(batch, kp)
	r.set("p50_us", "us", us(batchCPU.windowed(0.5)))
	r.set("p90_us", "us", us(batchCPU.windowed(0.9)))
	r.set("heavy_ms", "ms", ms(kpCPU.windowed(0.5)))
	// Only CPU time with a request in flight counts: between requests
	// the caller draws the next source and runs its reference BFS.
	r.set("cpu_us_per_op", "us", us(inFlight/time.Duration(max(len(all.samples), 1))))
	r.note("rank: %.1f requests/s; one-to-many p50 %v p90 %v p99 %v; k-paths p50 %v", all.rate(clk.bounds(end)),
		batch.windowed(0.5), batch.windowed(0.9), batch.windowed(0.99), kp.windowed(0.5))
}

// compareYen checks a K-paths answer against the baseline's brute-force
// Yen enumerator. Equal-length paths may be ranked in a different order
// by the two, so the sorted lengths are compared position by position,
// as the program's own tests do.
func compareYen(st *stack, in rankInput, got []rankedPath, r *run) {
	want := baseline.KShortestYen(st.g, in.s, in.kt, rankK)
	if len(got) != len(want) {
		r.fail("rank kpaths %d→%d: %d paths, brute force finds %d", in.s, in.kt, len(got), len(want))
		return
	}
	for x := range want {
		if got[x].dist != want[x].Dist {
			r.fail("rank kpaths %d→%d: path %d has length %d, brute force says %d", in.s, in.kt, x, got[x].dist, want[x].Dist)
		}
	}
}

// rawConn speaks the serial frame protocol directly, so writer and
// replica answers can be compared byte for byte.
type rawConn struct {
	c    net.Conn
	br   *bufio.Reader
	wbuf []byte
	rbuf []byte
}

func dialRaw(addr string) (*rawConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &rawConn{c: c, br: bufio.NewReader(c)}, nil
}

func (rc *rawConn) query(p pair) ([]byte, error) {
	rc.wbuf = wire.AppendFrame(rc.wbuf[:0], &wire.QueryRequest{S: p.s, T: p.t, Flags: wire.QueryWantPath | wire.QueryWantStats})
	if _, err := rc.c.Write(rc.wbuf); err != nil {
		return nil, err
	}
	payload, buf, err := wire.ReadFrame(rc.br, rc.rbuf)
	rc.rbuf = buf
	return bytes.Clone(payload), err
}

// runChurn: a writer applies churnPerSec×seconds update batches back to
// back; after each the replica catches up through one SyncOnce. One
// reader sends point's stream to the writer throughout.
func runChurn(ctx context.Context, st *stack, ref *refGraph, seed uint64, seconds float64, r *run) {
	pairs := pointInputs(seed, ref.n())
	probes := probeInputs(seed, ref.n())
	rng := newRand(seed, streamChurn)
	upd, read, probe := r.op("churn.update"), r.op("churn.read"), r.op("churn.probe")
	updCPU := &opStat{} // process CPU time while each update was in flight
	batches := churnWarm + int(churnPerSec*seconds)

	wraw, err := dialRaw(st.writer.addr())
	if err != nil {
		r.fail("churn: %v", err)
		return
	}
	defer wraw.c.Close()
	rraw, err := dialRaw(st.replica.addr())
	if err != nil {
		r.fail("churn: %v", err)
		return
	}
	defer rraw.c.Close()

	// Windows follow the update stream: window w spans the timed batches
	// b with (b-churnWarm)*windows/timed == w. win is -1 while untimed.
	timed := batches - churnWarm
	var (
		stop atomic.Bool
		win  atomic.Int32
		wg   sync.WaitGroup
	)
	win.Store(-1)
	wg.Add(1)
	go func() { // the reader
		defer wg.Done()
		k := 0
		for !stop.Load() {
			for j := 0; j < readerRound; j++ {
				p := pairs[k%len(pairs)]
				k++
				w := win.Load()
				t := time.Now()
				sp := r.tr.begin("qclient.Query.point", -1)
				res, err := st.cli.Query(ctx, pointSpec(p))
				r.tr.end(sp)
				d := time.Since(t)
				read.attempted++
				if err == nil {
					err = res.Items[0].Err
				}
				if err != nil {
					read.failed++
					r.fail("churn read: %v", err)
					continue
				}
				if w >= 0 && w == win.Load() {
					read.record(int(w), d)
				}
				it, epoch := res.Items[0], res.Epoch
				if err := checkPath(p.s, p.t, it.Dist, it.Path, func(u, v uint32) bool { return ref.hasAt(u, v, epoch) }, false); err != nil {
					r.fail("churn read at epoch %d: %v", epoch, err)
				}
			}
		}
	}()

	var body bytes.Buffer
	var gc0 uint32
	var cpu0 time.Duration
	bounds := make([]time.Time, windows+1)
	base := st.writer.srv.Catalog().Epoch()
	for b := 0; b < batches; b++ {
		w := -1
		if b >= churnWarm {
			w = (b - churnWarm) * windows / timed
		}
		if b == churnWarm {
			runtime.GC()
			gc0 = numGC()
			cpu0 = cpuTime()
		}
		if w >= 0 && int(win.Load()) != w {
			bounds[w] = time.Now()
			win.Store(int32(w))
		}
		ins, del := churnBatch(rng, ref)
		epoch := base + uint64(b+1)
		ref.apply(epoch, ins, del)
		body.Reset()
		_ = json.NewEncoder(&body).Encode(map[string][][2]uint32{"edges": ins, "del_edges": del})
		c := cpuTime()
		t := time.Now()
		sp := r.tr.begin("update", -1)
		err := submitAndSync(ctx, st, body.Bytes(), epoch)
		r.tr.end(sp)
		d := time.Since(t)
		c = cpuTime() - c
		upd.attempted++
		if err != nil {
			upd.failed++
			r.fail("churn update %d: %v", epoch, err)
			break
		}
		if w >= 0 {
			upd.record(w, d)
			updCPU.record(w, c)
		}
		checkProbes(ref, probes, epoch, wraw, rraw, probe, r)
	}
	bounds[windows] = time.Now()
	cpu := cpuTime() - cpu0
	win.Store(-1)
	stop.Store(true)
	wg.Wait()
	r.note("churn: %d GC cycles", numGC()-gc0)

	r.set("p50_us", "us", us(read.windowed(0.5)))
	r.set("p90_us", "us", us(read.windowed(0.9)))
	r.set("heavy_ms", "ms", ms(updCPU.quantile(0.5)))
	// An operation here is one update batch together with the reads
	// served beside it. The probe checks between batches (16 BFS runs)
	// cost about 1% of that and are left in.
	r.set("cpu_us_per_op", "us", us(cpu/time.Duration(max(len(upd.samples), 1))))
	r.note("churn: %.0f reads/s; read p99 %v; update p50 %v", read.rate(bounds),
		read.windowed(0.99), upd.quantile(0.5))
}

// submitAndSync posts one batch to the writer, has the replica catch
// up, and returns once the replica answers at the new epoch.
func submitAndSync(ctx context.Context, st *stack, body []byte, epoch uint64) error {
	resp, err := st.web.Post(st.writer.base()+"/v1/admin/update", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var out struct {
		Epoch uint64 `json:"epoch"`
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("update: status %d %s (%v)", resp.StatusCode, out.Error, err)
	}
	if out.Epoch != epoch {
		return fmt.Errorf("writer at epoch %d, want %d", out.Epoch, epoch)
	}
	if err := st.repl.SyncOnce(ctx); err != nil {
		return err
	}
	res, err := st.repCli.Query(ctx, qclient.QuerySpec{S: 0, T: 1})
	if err != nil {
		return err
	}
	if res.Epoch != epoch {
		return fmt.Errorf("replica serves epoch %d after sync, want %d", res.Epoch, epoch)
	}
	return nil
}

// checkProbes asks writer and replica the probe set at epoch: answers
// must be byte-identical, at that epoch, and equal to BFS distances on
// the reference graph with a valid path.
func checkProbes(ref *refGraph, probes []pair, epoch uint64, w, rep *rawConn, op *opStat, r *run) {
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
		op.attempted++
		a, errA := w.query(p)
		b, errB := rep.query(p)
		if errA != nil || errB != nil {
			op.failed++
			r.fail("probe %d→%d: %v / %v", p.s, p.t, errA, errB)
			continue
		}
		if !bytes.Equal(a, b) {
			r.fail("probe %d→%d at epoch %d: writer and replica answers differ", p.s, p.t, epoch)
		}
		var resp wire.QueryResponse
		if err := wire.UnmarshalInto(a, &resp); err != nil || len(resp.Items) != 1 {
			r.fail("probe %d→%d: bad response (%v)", p.s, p.t, err)
			continue
		}
		it := resp.Items[0]
		if resp.Epoch != epoch || it.Code != 0 || it.Dist != dist[p.t] {
			r.fail("probe %d→%d at epoch %d: epoch %d code %d distance %d, BFS says %d",
				p.s, p.t, epoch, resp.Epoch, it.Code, it.Dist, dist[p.t])
			continue
		}
		if err := checkPath(p.s, p.t, it.Dist, it.Path, ref.has, false); err != nil {
			r.fail("probe at epoch %d: %v", epoch, err)
		}
	}
}
